package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// registerMaintainedCRM registers the CRM context as a maintained
// entry over HTTP: resident DB facts plus two watched queries (Q1 is
// complete on the seed DB, Q2 incomplete — c2 is a legal 973-area
// answer the DB misses a support edge for).
func registerMaintainedCRM(t *testing.T, ts *httptest.Server) CatalogInfo {
	t.Helper()
	var info CatalogInfo
	code := post(t, ts.URL+"/v1/catalog", CatalogRequest{
		Name:          "crm",
		Schemas:       exSchemas,
		MasterSchemas: exMasterSchemas,
		DB:            exDB,
		Master:        exMaster,
		Constraints:   exConstraints,
		Queries:       []string{exQuery, incompleteQuery},
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register status %d, info %+v", code, info)
	}
	if info.Watched != 2 || info.Version != 1 || info.DBTuples != 3 {
		t.Fatalf("register info %+v, want 2 watched, version 1, 3 db tuples", info)
	}
	return info
}

// getVerdicts fetches GET /v1/catalog/{name}/verdicts with raw query
// parameters appended to path.
func getVerdicts(t *testing.T, url string) (int, *VerdictsResponse) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out VerdictsResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("status %d: bad verdicts body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, &out
}

// verdictOf picks one watched query's verdict out of a response.
func verdictOf(t *testing.T, vr *VerdictsResponse, query string) WatchedVerdict {
	t.Helper()
	for _, v := range vr.Verdicts {
		if v.Query == query {
			return v
		}
	}
	t.Fatalf("query %q not in verdicts %+v", query, vr.Verdicts)
	return WatchedVerdict{}
}

// TestMutationVerdictFlip: inserting the missing support edge into the
// resident DB flips the watched incomplete verdict to complete without
// a restart or a re-posted check — the mutate-smoke scenario.
func TestMutationVerdictFlip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	_, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
	if v := verdictOf(t, vr, exQuery); v.Verdict != "complete" {
		t.Fatalf("seed Q1 = %+v, want complete", v)
	}
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" || v.Extension == "" {
		t.Fatalf("seed Q2 = %+v, want incomplete with witness", v)
	}

	var mr MutationResponse
	code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr)
	if code != http.StatusOK {
		t.Fatalf("insert status %d: %+v", code, mr)
	}
	// A DB-side mutation fails the invisibility gate for every watched
	// query: both rerun cold, none reuse.
	if mr.Inserted != 1 || mr.Deleted != 0 || mr.Reused != 0 || mr.Rechecked != 2 || mr.Version != 2 {
		t.Fatalf("insert response %+v, want 1 inserted, 0 reused, 2 rechecked, version 2", mr)
	}

	_, vr = getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
	if vr.Version != 2 {
		t.Fatalf("version %d, want 2", vr.Version)
	}
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "complete" || v.Reused {
		t.Fatalf("post-insert Q2 = %+v, want complete (rechecked)", v)
	}

	// Deleting the edge flips it back: the incremental index patches
	// are exercised in both directions.
	code = post(t, ts.URL+"/v1/catalog/crm/delete", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr)
	if code != http.StatusOK || mr.Deleted != 1 || mr.Version != 3 {
		t.Fatalf("delete status %d response %+v, want 1 deleted, version 3", code, mr)
	}
	_, vr = getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" {
		t.Fatalf("post-delete Q2 = %+v, want incomplete again", v)
	}
}

// TestMutationMasterReuse: a master-side insert that stays inside the
// pre-batch projections and active domain passes the invisibility gate
// and reuses every cached verdict; one that brings new values forces
// cold rechecks.
func TestMutationMasterReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	var mr MutationResponse
	code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
		Target: "master",
		Facts:  "DCust(c1, Ann, 908, 5550001).",
	}, &mr)
	if code != http.StatusOK {
		t.Fatalf("duplicate master insert status %d: %+v", code, mr)
	}
	if mr.Inserted != 0 || mr.Reused != 2 || mr.Rechecked != 0 {
		t.Fatalf("duplicate master insert %+v, want 0 inserted, 2 reused, 0 rechecked", mr)
	}
	_, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts")
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" || !v.Reused {
		t.Fatalf("reused Q2 = %+v, want incomplete with reused=true", v)
	}

	code = post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
		Target: "master",
		Facts:  "DCust(c3, Carl, 908, 5550003).",
	}, &mr)
	if code != http.StatusOK {
		t.Fatalf("fresh master insert status %d: %+v", code, mr)
	}
	if mr.Inserted != 1 || mr.Reused != 0 || mr.Rechecked != 2 {
		t.Fatalf("fresh master insert %+v, want 1 inserted, 0 reused, 2 rechecked", mr)
	}
}

// TestMutationNoop: a batch that changes no row (an empty body, a
// re-insert of resident facts, a delete of an absent fact) keeps every
// watched verdict, reports each one as reused, leaves the version
// alone and wakes no long-poll.
func TestMutationNoop(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	done := make(chan *VerdictsResponse, 1)
	go func() {
		_, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts?after=1&wait_ms=400")
		done <- vr
	}()
	time.Sleep(50 * time.Millisecond)

	for _, m := range []struct {
		op   string
		body any
	}{
		{"insert", json.RawMessage(`{}`)},
		{"insert", MutationRequest{Facts: exDB}},
		{"delete", MutationRequest{Facts: "Supt(e1, sales, c2)."}},
	} {
		var mr MutationResponse
		code := post(t, ts.URL+"/v1/catalog/crm/"+m.op, m.body, &mr)
		if code != http.StatusOK {
			t.Fatalf("%s %v: status %d: %+v", m.op, m.body, code, mr)
		}
		if mr.Inserted != 0 || mr.Deleted != 0 || mr.Reused != 2 || mr.Rechecked != 0 || mr.Version != 1 {
			t.Fatalf("%s %v: response %+v, want 0 changed, 2 reused, 0 rechecked, version 1", m.op, m.body, mr)
		}
	}

	select {
	case vr := <-done:
		t.Fatalf("long-poll woke on a no-op mutation: %+v", vr)
	case <-time.After(100 * time.Millisecond):
	}
	vr := <-done // the wait expires with the unchanged state
	if vr.Version != 1 {
		t.Fatalf("expired poll saw version %d, want 1", vr.Version)
	}
	if v := verdictOf(t, vr, exQuery); v.Verdict != "complete" || !v.Reused {
		t.Fatalf("Q1 after no-ops = %+v, want complete with reused=true", v)
	}
	if v := verdictOf(t, vr, incompleteQuery); v.Verdict != "incomplete" || v.Extension == "" || !v.Reused {
		t.Fatalf("Q2 after no-ops = %+v, want incomplete with witness and reused=true", v)
	}
}

// TestVerdictsLongPoll: a poll parked on ?after=current wakes when a
// mutation bumps the version and sees the flipped verdict.
func TestVerdictsLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	type polled struct {
		code int
		vr   *VerdictsResponse
	}
	done := make(chan polled, 1)
	go func() {
		code, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts?after=1&wait_ms=10000")
		done <- polled{code, vr}
	}()

	// The parked poll must not answer before the mutation.
	select {
	case p := <-done:
		t.Fatalf("poll answered before mutation: %+v", p.vr)
	case <-time.After(50 * time.Millisecond):
	}

	var mr MutationResponse
	if code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
		Facts: "Supt(e1, sales, c2).",
	}, &mr); code != http.StatusOK {
		t.Fatalf("insert status %d", code)
	}

	select {
	case p := <-done:
		if p.code != http.StatusOK || p.vr.Version != 2 {
			t.Fatalf("poll answered %d %+v, want version 2", p.code, p.vr)
		}
		if v := verdictOf(t, p.vr, incompleteQuery); v.Verdict != "complete" {
			t.Fatalf("polled Q2 = %+v, want complete", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not wake on mutation")
	}

	// An expired wait returns the unchanged state rather than hanging.
	code, vr := getVerdicts(t, ts.URL+"/v1/catalog/crm/verdicts?after=2&wait_ms=30")
	if code != http.StatusOK || vr.Version != 2 {
		t.Fatalf("timed-out poll: status %d version %d, want 200/2", code, vr.Version)
	}
}

// TestMutationValidation covers the refusal paths: unknown catalog,
// bad target, facts that do not parse, and unparseable watch queries
// rolling the registration back.
func TestMutationValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	registerMaintainedCRM(t, ts)

	var er ErrorResponse
	if code := post(t, ts.URL+"/v1/catalog/nope/insert", MutationRequest{Facts: "Supt(e1, sales, c2)."}, &er); code != http.StatusNotFound {
		t.Fatalf("unknown catalog: status %d (%+v)", code, er)
	}
	if code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{Target: "dm", Facts: "x"}, &er); code != http.StatusBadRequest {
		t.Fatalf("bad target: status %d (%+v)", code, er)
	}
	if code := post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{Facts: "Nope("}, &er); code != http.StatusBadRequest {
		t.Fatalf("bad facts: status %d (%+v)", code, er)
	}

	var info CatalogInfo
	if code := post(t, ts.URL+"/v1/catalog", CatalogRequest{
		Name:    "broken",
		Schemas: exSchemas,
		Queries: []string{"Nope("},
	}, &info); code != http.StatusBadRequest {
		t.Fatalf("bad watch query: status %d", code)
	}
	if code, _ := getVerdicts(t, ts.URL+"/v1/catalog/broken/verdicts"); code != http.StatusNotFound {
		t.Fatalf("rolled-back entry still registered: status %d", code)
	}
}

// TestCatalogChecksDuringMutations races catalog-backed checks against
// mutations on the same entry: the entry lock serializes them, so
// every check sees a consistent snapshot (run with -race).
func TestCatalogChecksDuringMutations(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	registerMaintainedCRM(t, ts)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			var mr MutationResponse
			post(t, ts.URL+"/v1/catalog/crm/insert", MutationRequest{
				Target: "master", Facts: "DCust(c1, Ann, 908, 5550001).",
			}, &mr)
		}
	}()
	for i := 0; i < 10; i++ {
		var resp CheckResponse
		code := post(t, ts.URL+"/v1/rcdp", CheckRequest{
			Catalog: "crm", DB: exDB, Query: exQuery,
		}, &resp)
		if code != http.StatusOK || resp.Verdict != "complete" {
			t.Fatalf("check %d: status %d verdict %q", i, code, resp.Verdict)
		}
	}
	<-done
}
