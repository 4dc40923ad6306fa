package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/textq"
)

// registerCRM registers the Example 2.1 CRM context on a server.
func registerCRM(t *testing.T, s *Server) {
	t.Helper()
	if _, err := s.Catalog().Register("crm", textq.ProblemSource{
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		Master:        exMaster,
		Constraints:   exConstraints,
	}); err != nil {
		t.Fatal(err)
	}
}

// incompleteQuery matches no supported customer in area 973, so the
// CRM DB misses a legal extension answer and RCDP says incomplete.
const incompleteQuery = `Q2(C) :- Supt(E, D, C), Cust(C, N, CC, A, P), CC = 01, A = 973`

// postBatch sends a BatchRequest and decodes the JSONL stream.
func postBatch(t *testing.T, url string, req BatchRequest) (int, []BatchLine) {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("batch Content-Type = %q", ct)
	}
	var lines []BatchLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line BatchLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lines
}

// TestBatchStream: a batch against a catalog streams one line per
// query in submission order, each verdict matching what the single
// endpoint answers, with parse failures as in-stream error lines.
func TestBatchStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerCRM(t, s)
	queries := []string{exQuery, incompleteQuery, "Nope(", exQuery}
	code, lines := postBatch(t, ts.URL, BatchRequest{
		Catalog: "crm",
		DB:      exDB,
		Queries: queries,
	})
	if code != http.StatusOK || len(lines) != len(queries) {
		t.Fatalf("status %d, %d lines, want 200/%d", code, len(lines), len(queries))
	}
	for i, line := range lines {
		if line.Index != i {
			t.Fatalf("line %d has index %d (order broken)", i, line.Index)
		}
	}
	wantVerdicts := []string{"complete", "incomplete", "", "complete"}
	for i, want := range wantVerdicts {
		if want == "" {
			if lines[i].Error == "" || lines[i].Response != nil {
				t.Errorf("line %d: want an error line, got %+v", i, lines[i])
			}
			continue
		}
		if lines[i].Response == nil || lines[i].Response.Verdict != want {
			t.Errorf("line %d: want verdict %q, got %+v", i, want, lines[i])
		}
	}
	// Per-item request ids derive from the batch id.
	if got := lines[0].Response.RequestID; !strings.HasSuffix(got, ".0") {
		t.Errorf("item request id %q should end in .0", got)
	}
	// Each batch item answers exactly like the single endpoint.
	var single CheckResponse
	if code := post(t, ts.URL+"/v1/rcdp", CheckRequest{Catalog: "crm", DB: exDB, Query: incompleteQuery}, &single); code != http.StatusOK {
		t.Fatalf("single check status %d", code)
	}
	b := lines[1].Response
	if b.Verdict != single.Verdict || b.Extension != single.Extension ||
		fmt.Sprint(b.NewTuple) != fmt.Sprint(single.NewTuple) {
		t.Errorf("batch item diverges from single endpoint:\nbatch  %+v\nsingle %+v", b, single)
	}
}

// TestBatchInlineAndEndpoints: the inline (catalog-free) path works,
// Endpoint selects the check kind, and bad requests fail whole.
func TestBatchInlineAndEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	inline := BatchRequest{
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Endpoint:      "rcqp",
		Queries:       []string{exQuery},
	}
	code, lines := postBatch(t, ts.URL, inline)
	if code != http.StatusOK || len(lines) != 1 || lines[0].Response == nil || lines[0].Response.Verdict != "yes" {
		t.Fatalf("rcqp batch: status %d lines %+v", code, lines)
	}
	// Unknown endpoint and empty query list are request-level errors.
	bad := inline
	bad.Endpoint = "nope"
	if code, _ := postBatch(t, ts.URL, bad); code != http.StatusBadRequest {
		t.Fatalf("unknown endpoint: status %d", code)
	}
	bad = inline
	bad.Queries = nil
	if code, _ := postBatch(t, ts.URL, bad); code != http.StatusBadRequest {
		t.Fatalf("no queries: status %d", code)
	}
}

// clusterBackends starts n backend servers with the CRM catalog
// registered on each, returning their base URLs.
func clusterBackends(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, ts := newTestServer(t, Config{})
		registerCRM(t, s)
		urls[i] = ts.URL
	}
	return urls
}

// TestRouterServesBackendRoutes walks the backend's route table and
// sends one request per route straight to a backend and through a
// router over two backends: the router must answer every route, with
// the status the backend gives.
func TestRouterServesBackendRoutes(t *testing.T) {
	backends := clusterBackends(t, 2)
	rt, err := NewRouter(RouterConfig{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	send := func(method, url string) int {
		t.Helper()
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader("{}")
		}
		req, err := http.NewRequest(method, url, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, r := range New(Config{}).routes() {
		method, path := http.MethodPost, r.pattern
		if m, p, ok := strings.Cut(r.pattern, " "); ok {
			method, path = m, p
		}
		path = strings.ReplaceAll(path, "{name}", "crm")
		direct := send(method, backends[0]+path)
		routed := send(method, front.URL+path)
		if direct == http.StatusNotFound {
			t.Fatalf("%s %s: backend answered 404; the probe must reach the handler", method, path)
		}
		if routed != direct {
			t.Errorf("%s %s: router answered %d, backend %d", method, path, routed, direct)
		}
	}
}

// TestRingSpreadsSimilarNames: catalog names that differ only in
// their last characters spread over the ring instead of crowding onto
// one backend.
func TestRingSpreadsSimilarNames(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Backends: []string{"http://127.0.0.1:8081", "http://127.0.0.1:8082"}})
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int, 2)
	for i := 0; i < 100; i++ {
		owned[rt.pick(fmt.Sprintf("crm-%02d", i))]++
	}
	for b, n := range owned {
		if n < 25 {
			t.Errorf("backend %d owns %d of crm-00…crm-99 (split %v), want at least 25", b, n, owned)
		}
	}
}

// TestRouterSpreadsInlineBodies: inline batch bodies carry no catalog,
// name or query field, so each body is its own ring key; distinct ones
// reach both backends instead of all landing on one.
func TestRouterSpreadsInlineBodies(t *testing.T) {
	rt, err := NewRouter(RouterConfig{Backends: clusterBackends(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	for i := 0; i < 16; i++ {
		code, lines := postBatch(t, front.URL, BatchRequest{
			Schemas: exSchemas, MasterSchemas: exMasterSchemas, DB: exDB,
			Master: exMaster, Constraints: exConstraints,
			Queries: []string{fmt.Sprintf("Q(C) :- Supt(E, D, C), E = e%d", i)},
		})
		if code != http.StatusOK || len(lines) != 1 || lines[0].Error != "" {
			t.Fatalf("inline batch %d: status %d lines %+v", i, code, lines)
		}
	}
	f0, f1 := rt.health[0].forwards.Load(), rt.health[1].forwards.Load()
	if f0 == 0 || f1 == 0 {
		t.Errorf("16 distinct inline batches split %d/%d over the backends, want both used", f0, f1)
	}
}

// TestRouterForwarding: the router forwards checks to ring-picked
// backends, broadcasts catalog registrations, reports backend health
// and drains with Retry-After.
func TestRouterForwarding(t *testing.T) {
	// Backends without catalogs: the router's broadcast registers them.
	b1, ts1 := newTestServer(t, Config{})
	b2, ts2 := newTestServer(t, Config{})
	rt, err := NewRouter(RouterConfig{Backends: []string{ts1.URL, ts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Catalog broadcast: every backend holds the entry afterwards.
	reg := CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		Master:        exMaster,
		Constraints:   exConstraints,
	}
	var info CatalogInfo
	if code := post(t, front.URL+"/v1/catalog", reg, &info); code != http.StatusCreated || info.Name != "crm" {
		t.Fatalf("broadcast register: status %d info %+v", code, info)
	}
	if b1.Catalog().Get("crm") == nil || b2.Catalog().Get("crm") == nil {
		t.Fatal("catalog broadcast did not reach every backend")
	}
	// The fan-in listing reports the entry once.
	resp, err := http.Get(front.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	var infos []CatalogInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "crm" {
		t.Fatalf("fan-in listing %+v", infos)
	}

	// Routed checks answer exactly like a direct backend.
	req := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}
	var direct, routed CheckResponse
	if code := post(t, ts1.URL+"/v1/rcdp", req, &direct); code != http.StatusOK {
		t.Fatalf("direct: status %d", code)
	}
	for i := 0; i < 3; i++ {
		if code := post(t, front.URL+"/v1/rcdp", req, &routed); code != http.StatusOK {
			t.Fatalf("routed: status %d", code)
		}
		if routed.Verdict != direct.Verdict || routed.Reason != direct.Reason {
			t.Fatalf("routed %+v != direct %+v", routed, direct)
		}
	}
	// Same catalog key, same backend every time: one backend carries
	// all 3 check forwards (+1 broadcast each), the other only the
	// broadcast.
	f1 := rt.health[0].forwards.Load()
	f2 := rt.health[1].forwards.Load()
	if !(f1 == 4 && f2 == 1) && !(f1 == 1 && f2 == 4) {
		t.Errorf("ring did not pin the catalog to one backend: forwards %d/%d", f1, f2)
	}

	// Batch streams through the router.
	code, lines := postBatch(t, front.URL, BatchRequest{
		Catalog: "crm", DB: exDB, Queries: []string{exQuery, incompleteQuery},
	})
	if code != http.StatusOK || len(lines) != 2 || lines[0].Response.Verdict != "complete" || lines[1].Response.Verdict != "incomplete" {
		t.Fatalf("routed batch: status %d lines %+v", code, lines)
	}

	// Health: both backends ready, ledgers populated.
	resp, err = http.Get(front.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var statuses []BackendStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(statuses) != 2 || !statuses[0].Ready || !statuses[1].Ready {
		t.Fatalf("backend health %+v", statuses)
	}

	// Drain: new requests get 503 with Retry-After.
	go func() { _ = rt.Drain(context.Background()) }()
	waitFor(t, "router draining", rt.Draining)
	hr, err := http.Post(front.URL+"/v1/rcdp", "application/json", bytes.NewReader(mustJSON(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || hr.Header.Get("Retry-After") == "" {
		t.Fatalf("draining router: status %d Retry-After %q", hr.StatusCode, hr.Header.Get("Retry-After"))
	}
}

// TestRouterEjectOnFailure: a dead backend fails its forward with 502
// and is ejected from the routing rotation — no blind resend; the next
// request is refused without touching the wire until a reprobe heals
// the backend.
func TestRouterEjectOnFailure(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here anymore
	rt, err := NewRouter(RouterConfig{Backends: []string{deadURL}, ReprobeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	req := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}
	var eresp ErrorResponse
	if code := post(t, front.URL+"/v1/rcdp", req, &eresp); code != http.StatusBadGateway {
		t.Fatalf("dead backend: status %d, want 502", code)
	}
	if rt.health[0].retries.Load() != 0 || rt.health[0].failures.Load() != 1 {
		t.Errorf("ledger retries=%d failures=%d, want 0/1",
			rt.health[0].retries.Load(), rt.health[0].failures.Load())
	}
	if !rt.health[0].ejected.Load() {
		t.Error("failed backend not ejected")
	}
	// The next request finds an empty rotation (the hour-long reprobe
	// interval keeps the ejected backend out) and never dials out.
	forwardsBefore := rt.health[0].forwards.Load()
	if code := post(t, front.URL+"/v1/rcdp", req, &eresp); code != http.StatusBadGateway {
		t.Fatalf("empty rotation: status %d, want 502", code)
	}
	if got := rt.health[0].forwards.Load(); got != forwardsBefore {
		t.Errorf("ejected backend was dialed: forwards %d -> %d", forwardsBefore, got)
	}
	// Health reports the backend not ready and ejected.
	resp, err := http.Get(front.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	var statuses []BackendStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(statuses) != 1 || statuses[0].Ready || statuses[0].State != "ejected" {
		t.Fatalf("dead backend status: %+v", statuses)
	}
}

// TestRouterCatalogResync: a backend unreachable during catalog
// broadcasts falls behind, and the health sweep replays the missed
// registrations and mutations once it probes ready again — a rejoined
// backend converges to the same catalog state without operator
// intervention.
func TestRouterCatalogResync(t *testing.T) {
	b1, ts1 := newTestServer(t, Config{})
	// Backend 2 sits behind a kill switch: while down, every request's
	// connection is closed without a response, which the router treats
	// as an unreachable backend (not an HTTP refusal).
	s2 := New(Config{})
	var down atomic.Bool
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("test server does not support hijacking")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		s2.Handler().ServeHTTP(w, r)
	}))
	defer ts2.Close()
	rt, err := NewRouter(RouterConfig{Backends: []string{ts1.URL, ts2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Register a maintained catalog and mutate it while backend 2 is
	// unreachable: the router tolerates the partial broadcast.
	down.Store(true)
	var info CatalogInfo
	if code := post(t, front.URL+"/v1/catalog", CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Queries:       []string{exQuery, incompleteQuery},
	}, &info); code != http.StatusCreated {
		t.Fatalf("register with one backend down: status %d", code)
	}
	var mr MutationResponse
	if code := post(t, front.URL+"/v1/catalog/crm/insert", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr); code != http.StatusOK || mr.Rechecked != 2 {
		t.Fatalf("mutate with one backend down: status %d %+v", code, mr)
	}
	if b1.Catalog().Get("crm") == nil {
		t.Fatal("live backend missed the broadcast")
	}
	if s2.Catalog().Get("crm") != nil {
		t.Fatal("down backend received the broadcast")
	}

	statuses := getBackends(t, front.URL)
	if statuses[1].Ready || statuses[1].Pending != 2 {
		t.Fatalf("down backend status %+v, want not ready with 2 pending", statuses[1])
	}
	forwardsBefore := rt.health[1].forwards.Load()

	// Backend 2 comes back: the next health sweep replays both missed
	// entries, without counting them as client forwards.
	down.Store(false)
	statuses = getBackends(t, front.URL)
	if !statuses[1].Ready || statuses[1].Pending != 0 {
		t.Fatalf("rejoined backend status %+v, want ready with 0 pending", statuses[1])
	}
	if got := rt.health[1].forwards.Load(); got != forwardsBefore {
		t.Errorf("sync counted as forwards: %d -> %d", forwardsBefore, got)
	}
	if s2.Catalog().Get("crm") == nil {
		t.Fatal("rejoined backend did not receive the catalog")
	}
	_, vr := getVerdicts(t, ts2.URL+"/v1/catalog/crm/verdicts")
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "complete" {
		t.Fatalf("rejoined backend Q2 = %+v, want complete (mutation replayed)", v)
	}

	// With both backends current, a routed mutation reaches both and a
	// routed verdicts read answers from the ring-picked copy.
	if code := post(t, front.URL+"/v1/catalog/crm/delete", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr); code != http.StatusOK || mr.Deleted != 1 {
		t.Fatalf("routed delete: status %d %+v", code, mr)
	}
	for i, base := range []string{ts1.URL, ts2.URL, front.URL} {
		_, vr := getVerdicts(t, base+"/v1/catalog/crm/verdicts")
		if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" {
			t.Fatalf("copy %d: Q2 = %+v, want incomplete after routed delete", i, v)
		}
	}
}

// getBackends fetches and decodes GET /v1/backends.
func getBackends(t *testing.T, frontURL string) []BackendStatus {
	t.Helper()
	resp, err := http.Get(frontURL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statuses []BackendStatus
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	return statuses
}

// TestRouterRingEjectionFailover: a connection failure ejects the
// primary backend from the rotation, routed traffic deterministically
// fails over to the next ring candidate without a blind resend, and
// the health sweep re-admits the backend once it probes ready with a
// healed replay log.
func TestRouterRingEjectionFailover(t *testing.T) {
	// Both backends sit behind kill switches so the test can kill
	// whichever one the ring makes primary for the catalog key.
	servers := make([]*Server, 2)
	downs := make([]atomic.Bool, 2)
	urls := make([]string, 2)
	for i := range servers {
		i := i
		servers[i] = New(Config{})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if downs[i].Load() {
				hj, ok := w.(http.Hijacker)
				if !ok {
					t.Error("test server does not support hijacking")
					return
				}
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
				}
				return
			}
			servers[i].Handler().ServeHTTP(w, r)
		}))
		defer ts.Close()
		urls[i] = ts.URL
	}
	rt, err := NewRouter(RouterConfig{Backends: urls, ReprobeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	var info CatalogInfo
	if code := post(t, front.URL+"/v1/catalog", CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
	}, &info); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}

	order := rt.candidates("crm")
	primary, standby := order[0], order[1]
	req := CheckRequest{Catalog: "crm", DB: exDB, Query: exQuery}

	// Kill the primary: the routed check still succeeds — the forward
	// fails once, ejects the primary and fails over to the standby.
	downs[primary].Store(true)
	var resp CheckResponse
	if code := post(t, front.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("failover check: status %d, resp %+v", code, resp)
	}
	if resp.Verdict != "complete" {
		t.Fatalf("failover verdict %q, want complete", resp.Verdict)
	}
	if !rt.health[primary].ejected.Load() {
		t.Fatal("primary not ejected after connection failure")
	}
	if rt.health[standby].retries.Load() == 0 {
		t.Error("standby did not record the failover")
	}

	// While ejected (and the reprobe interval far away), routed checks
	// skip the primary entirely: no dial, straight to the standby.
	primaryForwards := rt.health[primary].forwards.Load()
	if code := post(t, front.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("ejected-primary check: status %d", code)
	}
	if got := rt.health[primary].forwards.Load(); got != primaryForwards {
		t.Errorf("ejected primary was dialed: forwards %d -> %d", primaryForwards, got)
	}
	statuses := getBackends(t, front.URL)
	if statuses[primary].State != "ejected" || statuses[standby].State != "healthy" {
		t.Fatalf("states %q/%q, want ejected/healthy",
			statuses[primary].State, statuses[standby].State)
	}

	// Revive the primary: the health sweep probes it ready, heals the
	// replay log (the registration broadcast it missed nothing of) and
	// re-admits it; routed traffic returns to the primary.
	downs[primary].Store(false)
	statuses = getBackends(t, front.URL)
	if statuses[primary].State != "healthy" || statuses[primary].Pending != 0 {
		t.Fatalf("revived primary status %+v, want healthy with 0 pending", statuses[primary])
	}
	primaryForwards = rt.health[primary].forwards.Load()
	if code := post(t, front.URL+"/v1/rcdp", req, &resp); code != http.StatusOK {
		t.Fatalf("post-heal check: status %d", code)
	}
	if got := rt.health[primary].forwards.Load(); got != primaryForwards+1 {
		t.Errorf("re-admitted primary not routed to: forwards %d -> %d", primaryForwards, got)
	}
}
