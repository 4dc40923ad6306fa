package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mdm"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/textq"
)

// workload describes one traffic mix.
type workload struct {
	// clients is the closed-loop client count of the measured phase.
	clients int
	// checkWorkers is each backend's -check-workers.
	checkWorkers int
	// backends is the backend count; more than one puts a router in
	// front of them.
	backends int
	// warmup is the operation count per client run during set-up.
	warmup int
	// opsPerSecond, when positive, fixes the measured phase at
	// seconds×opsPerSecond operations per client instead of running
	// for a duration (crm-cluster: its heap grows with every mutation).
	opsPerSecond int
}

var workloads = map[string]workload{
	"crm-check":   {clients: 2, checkWorkers: 1, backends: 1, warmup: 60},
	"sat-search":  {clients: 1, checkWorkers: 2, backends: 1, warmup: 2},
	"crm-cluster": {clients: 2, checkWorkers: 1, backends: 2, warmup: 30, opsPerSecond: 200},
}

// op is one client operation.
type op struct {
	kind string // "check" or "mutation"
	path string
	body []byte

	want     string // check: expected verdict
	wantIns  int    // mutation: expected inserted rows
	wantDel  int    // mutation: expected deleted rows
	catalog  string
	query    int          // crm check: index into crmScenario.queries
	instance *satInstance // sat check
}

// httpProc is one in-process HTTP listener.
type httpProc struct {
	hs   *http.Server
	url  string
	done chan error
}

func startHTTP(h http.Handler) (*httpProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	p := &httpProc{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- p.hs.Serve(ln) }()
	return p, nil
}

func (p *httpProc) stop(ctx context.Context) {
	_ = p.hs.Shutdown(ctx) // a listener that does not close in time still exits with the process
	<-p.done
}

// backendProc is one relserve backend and its benchmark-side wrapper.
type backendProc struct {
	srv  *server.Server
	http *httpProc
}

// env is one set-up of a workload: servers, registered catalogs and
// the per-client operation sources.
type env struct {
	name     string
	w        workload
	cfg      runConfig
	crm      *crmScenario
	sat      []*satInstance
	catalogs []string

	backends []*backendProc
	router   *server.Router
	routerP  *httpProc
	base     string // URL clients post to
	client   *http.Client
	tr       *tracer
	warm     *stats // the warm-up phase's operations

	// lastBackend is the backend that most recently began handling a
	// request; with one client outstanding it names the backend that
	// serves the current operation.
	lastBackend atomic.Int32
	// opSeq numbers operations across the whole run.
	opSeq atomic.Int64

	opsMu    sync.Mutex
	checkOps map[string]*op // crmCheckOp's shared ops
}

// setupTimes are the parts of one set-up.
type setupTimes struct{ generate, register, warmup, total time.Duration }

// setup builds a ready environment: scenario generation, server start,
// catalog registration with watched-verdict seeding, warm-up.
func setup(name string, cfg runConfig, tr *tracer, wants []string) (*env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	e := &env{name: name, w: workloads[name], cfg: cfg, tr: tr}
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
	if name == "sat-search" {
		var err error
		if e.sat, err = newSatInstances(cfg.seed); err != nil {
			return nil, st, err
		}
	} else {
		e.crm = newCRMScenario()
		for i := range e.crm.queries {
			e.crm.queries[i].want = wants[i]
		}
	}
	t1 := time.Now()
	st.generate = t1.Sub(t0)

	if err := e.start(); err != nil {
		e.teardown()
		return nil, st, err
	}
	if err := e.register(); err != nil {
		e.teardown()
		return nil, st, err
	}
	t2 := time.Now()
	st.register = t2.Sub(t1)

	e.warm = newStats()
	runClients(e, e.w.clients, func(c int) source { return e.source(c, "warmup", e.w.warmup) }, time.Time{}, e.warm, nil)
	if e.warm.failed() > 0 {
		e.teardown()
		return nil, st, fmt.Errorf("warm-up: %d of %d operations failed", e.warm.failed(), e.warm.attempted())
	}
	st.warmup = time.Since(t2)
	st.total = time.Since(t0)
	return e, st, nil
}

// start launches the backends (and the router in front of them).
func (e *env) start() error {
	var urls []string
	for i := 0; i < e.w.backends; i++ {
		srv := server.New(server.Config{CheckWorkers: e.w.checkWorkers})
		b := &backendProc{srv: srv}
		p, err := startHTTP(e.tr.backendHandler(e, i, srv.Handler()))
		if err != nil {
			return err
		}
		b.http = p
		e.backends = append(e.backends, b)
		urls = append(urls, p.url)
	}
	e.base = urls[0]
	if e.w.backends == 1 {
		return nil
	}
	rt, err := server.NewRouter(server.RouterConfig{Backends: urls})
	if err != nil {
		return err
	}
	e.router = rt
	p, err := startHTTP(e.tr.routerHandler(rt.Handler()))
	if err != nil {
		return err
	}
	e.routerP = p
	e.base = p.url
	return nil
}

// register registers the workload's catalogs. crm-check registers one
// catalog on its backend. crm-cluster picks catalog names until each
// backend owns two (probing the router with checks against
// unregistered names, which the owning backend answers 404), then
// registers each with the scenario's D and watched Q0/Q2.
func (e *env) register() error {
	switch e.name {
	case "crm-check":
		e.catalogs = []string{"crm"}
		return e.postCatalog(server.CatalogRequest{
			Name: "crm", Schemas: e.crm.schemas, MasterSchemas: e.crm.masterSchemas,
			Master: e.crm.master, Constraints: e.crm.constraints,
		})
	case "crm-cluster":
		owned := make([]int, len(e.backends))
		for i := 0; len(e.catalogs) < 2*len(e.backends); i++ {
			if i > 1000 {
				return fmt.Errorf("register: catalog names do not spread over the backends")
			}
			name := fmt.Sprintf("%c%d-crm", 'a'+i%26, i/26)
			body, _ := json.Marshal(server.CheckRequest{Catalog: name, Query: e.crm.queries[0].text})
			status, _, err := e.post("/v1/rcdp", body, 0)
			if err != nil || status != http.StatusNotFound {
				return fmt.Errorf("register: probe %s: status %d: %v", name, status, err)
			}
			if b := e.lastBackend.Load(); owned[b] < 2 {
				owned[b]++
				e.catalogs = append(e.catalogs, name)
			}
		}
		queries := make([]string, len(e.crm.queries))
		for i, q := range e.crm.queries {
			queries[i] = q.text
		}
		for _, name := range e.catalogs {
			if err := e.postCatalog(server.CatalogRequest{
				Name: name, Schemas: e.crm.schemas, MasterSchemas: e.crm.masterSchemas,
				DB: e.crm.db, Master: e.crm.master, Constraints: e.crm.constraints, Queries: queries,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *env) postCatalog(req server.CatalogRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	status, resp, err := e.post("/v1/catalog", body, 0)
	if err != nil || status != http.StatusCreated {
		return fmt.Errorf("register %s: status %d: %v %s", req.Name, status, err, resp)
	}
	return nil
}

// post sends one request to the front door and reads the whole body.
func (e *env) post(path string, body []byte, opID int64) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opID != 0 {
		req.Header.Set(opHeader, fmt.Sprint(opID))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches and decodes one JSON document from url.
func (e *env) get(url string, out any) error {
	resp, err := e.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// teardown drains and stops every server of the environment.
func (e *env) teardown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.routerP != nil {
		_ = e.router.Drain(ctx) // nothing is in flight once the clients have returned
		e.routerP.stop(ctx)
	}
	for _, b := range e.backends {
		_ = b.srv.Drain(ctx)
		b.http.stop(ctx)
	}
	e.client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
}

// source yields one client's operations; nil ends the client.
type source func(i int, deadline time.Time) *op

// source builds client c's operation sequence for a phase. limit > 0
// ends it after limit operations, otherwise it ends at the deadline;
// either way it first finishes the block (or sat-search's instance
// cycle) in progress, so every phase keeps the exact operation mix
// and crm-cluster's insert/delete pairs are never cut.
func (e *env) source(c int, phase string, limit int) source {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%s", e.cfg.seed, c, phase)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	var block []*op
	done := func(i int, deadline time.Time) bool {
		if limit > 0 {
			return i >= limit
		}
		return time.Now().After(deadline)
	}
	return func(i int, deadline time.Time) *op {
		if e.name == "sat-search" {
			if (limit > 0 || i%len(e.sat) == 0) && done(i, deadline) {
				return nil
			}
			return e.sat[i%len(e.sat)].op
		}
		if len(block) == 0 {
			if done(i, deadline) {
				return nil
			}
			block = e.crmBlock(rng, fmt.Sprintf("%sc%dn%d", phase[:1], c, i))
		}
		o := block[0]
		block = block[1:]
		return o
	}
}

// crmBlock returns the next block of CRM operations in a seeded order.
// A crm-check block is two Q0 checks and one Q2 check, so the latency
// median lies inside Q0's mode rather than between the two modes. A
// crm-cluster block is 15 operations: 12 checks (8 Q0, 4 Q2) over the
// catalogs, a db-side insert/delete pair of a fresh-valued Cust fact
// (the invisibility gate misses, so watched verdicts are rechecked
// cold) and a master-side insert of DCust tuples already present (the
// gate hits). Each pair restores D, so the final state equals the
// initial one.
func (e *env) crmBlock(rng *rand.Rand, tag string) []*op {
	queries := []int{0, 0, 1}
	if e.name == "crm-check" {
		rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		out := make([]*op, len(queries))
		for i, q := range queries {
			out[i] = e.crmCheckOp(e.catalogs[0], q)
		}
		return out
	}
	var out []*op
	for k := 0; k < 4; k++ {
		for _, q := range queries {
			out = append(out, e.crmCheckOp(e.catalogs[rng.Intn(len(e.catalogs))], q))
		}
	}
	cat := e.catalogs[rng.Intn(len(e.catalogs))]
	fresh := textq.FormatFact(mdm.Cust, relation.Tuple{relation.Value("x" + tag), relation.Value("name" + tag), "01", crmAreaCode, "5559999"}) + "\n"
	out = append(out,
		e.mutationOp(cat, "insert", "db", fresh, 1, 0),
		e.mutationOp(cat, "delete", "db", fresh, 0, 1))
	dup := ""
	for _, t := range e.crm.s.Dm.Instance(mdm.DCust).Tuples()[:2] {
		dup += textq.FormatFact(mdm.DCust, t) + "\n"
	}
	out = append(out, e.mutationOp(e.catalogs[rng.Intn(len(e.catalogs))], "insert", "master", dup, 0, 0))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	// Keep each pair's insert before its delete.
	ins, del := -1, -1
	for i, o := range out {
		if o.kind == "mutation" && o.wantIns == 1 {
			ins = i
		}
		if o.kind == "mutation" && o.wantDel == 1 {
			del = i
		}
	}
	if del < ins {
		out[ins], out[del] = out[del], out[ins]
	}
	return out
}

// crmCheckOp returns the check of query q against catalog. The ops are
// built once per environment and shared, so clients do not spend CPU
// encoding the 17.7 KB body on every request.
func (e *env) crmCheckOp(catalog string, q int) *op {
	e.opsMu.Lock()
	defer e.opsMu.Unlock()
	key := fmt.Sprintf("%s/%d", catalog, q)
	if o := e.checkOps[key]; o != nil {
		return o
	}
	body, _ := json.Marshal(server.CheckRequest{Catalog: catalog, DB: e.crm.db, Query: e.crm.queries[q].text})
	o := &op{kind: "check", path: "/v1/rcdp", body: body, want: e.crm.queries[q].want, catalog: catalog, query: q}
	if e.checkOps == nil {
		e.checkOps = map[string]*op{}
	}
	e.checkOps[key] = o
	return o
}

func (e *env) mutationOp(catalog, verb, target, facts string, ins, del int) *op {
	body, _ := json.Marshal(server.MutationRequest{Target: target, Facts: facts})
	return &op{kind: "mutation", path: "/v1/catalog/" + catalog + "/" + verb, body: body, wantIns: ins, wantDel: del, catalog: catalog}
}

func satOp(si *satInstance) *op {
	body, _ := json.Marshal(server.CheckRequest{
		Schemas: si.src.Schemas, MasterSchemas: si.src.MasterSchemas, DB: si.src.DB,
		Master: si.src.Master, Constraints: si.src.Constraints, Query: si.src.Query,
	})
	return &op{kind: "check", path: "/v1/rcdp", body: body, want: si.want, instance: si}
}

// verifyFinal checks crm-cluster's maintained state after the load:
// every backend's watched verdicts must equal a cold check of the
// final state (the pairs restore D, so that is core's verdict on the
// Go-built scenario) and its D and Dm must hold the initial tuple
// counts. It returns the number of catalog copies found wrong and the
// number checked.
func (e *env) verifyFinal() (bad, checked int, err error) {
	if e.name != "crm-cluster" {
		return 0, 0, nil
	}
	for _, b := range e.backends {
		var infos []server.CatalogInfo
		if err := e.get(b.http.url+"/v1/catalog", &infos); err != nil {
			return 0, 0, err
		}
		counts := map[string]bool{}
		for _, in := range infos {
			counts[in.Name] = in.DBTuples == e.crm.s.D.TupleCount() && in.MasterTuples == e.crm.s.Dm.TupleCount()
		}
		for _, name := range e.catalogs {
			var vr server.VerdictsResponse
			if err := e.get(b.http.url+"/v1/catalog/"+name+"/verdicts", &vr); err != nil {
				return 0, 0, err
			}
			checked++
			ok := counts[name] && len(vr.Verdicts) == len(e.crm.queries)
			for i := 0; ok && i < len(vr.Verdicts); i++ {
				ok = vr.Verdicts[i].Query == e.crm.queries[i].text && vr.Verdicts[i].Verdict == e.crm.queries[i].want
			}
			if !ok {
				fmt.Fprintf(os.Stderr, "DEBUG %s %s counts=%v %+v infos=%+v\n", b.http.url, name, counts[name], vr.Verdicts, infos)
				bad++
			}
		}
	}
	return bad, checked, nil
}
