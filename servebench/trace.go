package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/textq"
)

// opHeader carries the client's operation id. Backends behind the
// router never see it (the router does not forward client headers), so
// crm-cluster's traced pass runs one client and attributes backend
// spans to the single outstanding operation.
const opHeader = "X-Bench-Op"

// spanRec is one recorded span. Client, router and server spans wrap
// the HTTP calls; the other names are the traced replay of one check's
// public library calls on the same inputs.
type spanRec struct {
	Name    string
	Op      int64
	Kind    string // client spans: "check" or "mutation"
	Backend int
	Start   time.Time
	End     time.Time
	// core.rcdp replays: work counts at Workers=1, and the valuations
	// the served response reported.
	Valuations       int
	JoinRows         int64
	ServedValuations int
}

func (s spanRec) ms() float64 { return float64(s.End.Sub(s.Start)) / float64(time.Millisecond) }

// tracer keeps spans in memory while on, and carries the
// benchmark-side handler wrappers.
type tracer struct {
	on     atomic.Bool
	lastOp atomic.Int64 // the most recently sent operation
	delay  time.Duration

	mu            sync.Mutex
	spans         []spanRec
	replayInputs  map[string]*replayInput
	replayFailure int
}

// replayInput is one distinct check input of the traced pass, kept
// for the quiesced allocation count.
type replayInput struct {
	q     qlang.Query
	d, dm *relation.Database
	v     *cc.Set
	count int
}

func newTracer(delay time.Duration) *tracer {
	return &tracer{delay: delay, replayInputs: map[string]*replayInput{}}
}

func (t *tracer) span(s spanRec) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) opOf(r *http.Request) int64 {
	if id, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
		return id
	}
	return t.lastOp.Load()
}

// spin busy-waits for d: the sensitivity self-test's injected work.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// backendHandler wraps backend i's handler: it records which backend
// is serving, adds the injected delay, and times the handler call.
func (t *tracer) backendHandler(e *env, i int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e.lastBackend.Store(int32(i))
		start := time.Now()
		if t.delay > 0 {
			spin(t.delay)
		}
		h.ServeHTTP(w, r)
		if t.on.Load() {
			t.span(spanRec{Name: "server", Op: t.opOf(r), Backend: i, Start: start, End: time.Now()})
		}
	})
}

// routerHandler times the router's handler calls.
func (t *tracer) routerHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if t.on.Load() {
			t.span(spanRec{Name: "router", Op: t.opOf(r), Start: start, End: time.Now()})
		}
	})
}

// replay times, on one check's inputs, the public calls the backend
// makes for it: the JSON decode, textq parsing, core's search at
// Workers=1 (and at the server's worker count when that differs),
// then the compiled query's Eval and the constraint check on the
// request's D. Catalog checks use the serving backend's Entry, so its
// caches stay warm.
func (e *env) replay(o *op, id int64, resp *server.CheckResponse) {
	t := e.tr
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		t.span(spanRec{Name: name, Op: id, Start: t0, End: time.Now()})
		return err
	}
	fail := func() {
		t.mu.Lock()
		t.replayFailure++
		t.mu.Unlock()
	}
	var req server.CheckRequest
	if timed("server.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(o.body))
		dec.DisallowUnknownFields()
		return dec.Decode(&req)
	}) != nil {
		fail()
		return
	}
	in := &replayInput{}
	var key string
	if o.instance == nil {
		entry := e.backends[e.lastBackend.Load()].srv.Catalog().Get(o.catalog)
		if entry == nil || timed("textq.parse_facts", func() (err error) {
			in.d, err = textq.ParseFacts(req.DB, entry.Schemas)
			return err
		}) != nil {
			fail()
			return
		}
		q, err := entry.Query(req.Query)
		if err != nil {
			fail()
			return
		}
		in.q, in.dm, in.v = q, entry.Dm, entry.V
		key = fmt.Sprintf("%s/%d", o.catalog, o.query)
	} else {
		var p *textq.Problem
		if timed("textq.parse_problem", func() (err error) {
			p, err = textq.ParseProblem(textq.ProblemSource{
				Schemas: req.Schemas, MasterSchemas: req.MasterSchemas, DB: req.DB,
				Master: req.Master, Constraints: req.Constraints, Query: req.Query,
			})
			return err
		}) != nil || timed("textq.parse_facts", func() error {
			_, err := textq.ParseFacts(req.DB, p.Schemas)
			return err
		}) != nil {
			fail()
			return
		}
		in.q, in.d, in.dm, in.v = p.Q, p.D, p.Dm, p.V
		key = fmt.Sprintf("%p", o.instance)
	}

	// A join-row budget no check reaches makes the run governed, so its
	// stats count join rows.
	ck := core.Checker{Workers: 1, Budget: core.Budget{MaxJoinRows: math.MaxInt64}}
	t0 := time.Now()
	res, err := ck.RCDPCtx(context.Background(), in.q, in.d, in.dm, in.v)
	t1 := time.Now()
	if err != nil || res.Verdict.String() != o.want {
		fail()
		return
	}
	served := 0
	if resp.Stats != nil {
		served = resp.Stats.Valuations
	}
	t.span(spanRec{Name: "core.rcdp", Op: id, Start: t0, End: t1,
		Valuations: res.Stats.Valuations, JoinRows: res.Stats.JoinRows, ServedValuations: served})
	if e.w.checkWorkers != 1 {
		ck.Workers = e.w.checkWorkers
		if timed("core.rcdp_served", func() error {
			_, err := ck.RCDPCtx(context.Background(), in.q, in.d, in.dm, in.v)
			return err
		}) != nil {
			fail()
			return
		}
	}
	if timed("cq.eval", func() error {
		_, err := in.q.Eval(in.d)
		return err
	}) != nil || timed("cc.satisfied", func() error {
		ok, err := in.v.Satisfied(in.d, in.dm)
		if err == nil && !ok {
			err = fmt.Errorf("request database violates the constraints")
		}
		return err
	}) != nil {
		fail()
		return
	}

	t.mu.Lock()
	if prev := t.replayInputs[key]; prev != nil {
		prev.count++
	} else {
		in.count = 1
		t.replayInputs[key] = in
	}
	t.mu.Unlock()
}

// allocsPerCheck counts heap allocations of core's search at
// Workers=1 once per distinct input of the traced pass, with no other
// load running, and weights them by how often each input was sent.
func (t *tracer) allocsPerCheck() (float64, error) {
	ck := core.Checker{Workers: 1, Budget: core.Budget{MaxJoinRows: math.MaxInt64}}
	var sum float64
	n := 0
	for _, in := range t.replayInputs {
		if _, err := ck.RCDPCtx(context.Background(), in.q, in.d, in.dm, in.v); err != nil {
			return 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := ck.RCDPCtx(context.Background(), in.q, in.d, in.dm, in.v)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, err
		}
		sum += float64(in.count) * float64(m1.Mallocs-m0.Mallocs)
		n += in.count
	}
	if n == 0 {
		return 0, fmt.Errorf("no check was replayed")
	}
	return sum / float64(n), nil
}

// covered is how much of [start, end) the spans cover (their union).
func covered(start, end time.Time, spans []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if a.Before(b) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, x := range ivs {
		switch {
		case i == 0:
			curA, curB = x.a, x.b
		case x.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = x.a, x.b
		case x.b.After(curB):
			curB = x.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return total
}

// selfMS is a span's self time: its duration minus the part its child
// spans cover.
func selfMS(s spanRec, children []spanRec) float64 {
	return float64(s.End.Sub(s.Start)-covered(s.Start, s.End, children)) / float64(time.Millisecond)
}

// mean accumulates an average.
type mean struct {
	sum float64
	n   int
}

func (m *mean) add(x float64) { m.sum += x; m.n++ }
func (m *mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// layerTimes computes the per-layer times and counts from the spans,
// grouped by operation.
func (t *tracer) layerTimes() map[string]*mean {
	byOp := map[int64][]spanRec{}
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	out := map[string]*mean{}
	add := func(name string, x float64) {
		m := out[name]
		if m == nil {
			m = &mean{}
			out[name] = m
		}
		m.add(x)
	}
	for _, spans := range byOp {
		named := map[string][]spanRec{}
		for _, s := range spans {
			named[s.Name] = append(named[s.Name], s)
		}
		if len(named["client"]) != 1 {
			continue
		}
		client := named["client"][0]
		servers, routers := named["server"], named["router"]
		outer := servers
		if len(routers) > 0 {
			outer = routers
		}
		if client.Kind == "mutation" {
			for _, s := range servers {
				add("server.mutation_handle_ms", s.ms())
			}
			for _, r := range routers {
				add("router.broadcast_ms", r.ms())
			}
			continue
		}
		if len(servers) != 1 || len(named["core.rcdp"]) != 1 {
			continue
		}
		add("client.overhead_ms", selfMS(client, outer))
		for _, r := range routers {
			add("router.self_ms", selfMS(r, servers))
		}
		handle := servers[0].ms()
		add("server.handle_ms", handle)
		stage := map[string]float64{}
		for _, name := range []string{"server.decode", "textq.parse_facts", "textq.parse_problem", "core.rcdp", "core.rcdp_served", "cq.eval", "cc.satisfied"} {
			for _, s := range named[name] {
				stage[name] += s.ms()
				add(name+"_ms", s.ms())
			}
		}
		parse, search := stage["textq.parse_facts"], stage["core.rcdp"]
		if len(named["textq.parse_problem"]) > 0 {
			parse = stage["textq.parse_problem"]
		}
		if len(named["core.rcdp_served"]) > 0 {
			search = stage["core.rcdp_served"]
		}
		add("server.other_ms", handle-stage["server.decode"]-parse-search)
		r := named["core.rcdp"][0]
		add("core.valuations_per_check", float64(r.Valuations))
		add("core.join_rows_per_check", float64(r.JoinRows))
		if r.Valuations > 0 {
			add("core.parallel_waste", float64(r.ServedValuations)/float64(r.Valuations))
		}
	}
	return out
}

// writeSpans writes the spans as JSONL: one object per span with its
// id, its parent's id (0 for a root), the operation id, name, start
// and end in nanoseconds since the first span, and any counts.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.SliceStable(t.spans, func(i, j int) bool {
		if t.spans[i].Op != t.spans[j].Op {
			return t.spans[i].Op < t.spans[j].Op
		}
		return t.spans[i].Start.Before(t.spans[j].Start)
	})
	var t0 time.Time
	if len(t.spans) > 0 {
		t0 = t.spans[0].Start
	}
	type line struct {
		ID         int    `json:"id"`
		Parent     int    `json:"parent"`
		Op         int64  `json:"op"`
		Name       string `json:"name"`
		Kind       string `json:"kind,omitempty"`
		Backend    *int   `json:"backend,omitempty"`
		StartNS    int64  `json:"start_ns"`
		EndNS      int64  `json:"end_ns"`
		Valuations int    `json:"valuations,omitempty"`
		JoinRows   int64  `json:"join_rows,omitempty"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := 0; i < len(t.spans); {
		// One operation: ids are positions in the file; the client span
		// is the root, the router's parent is the client, a server's
		// parent is the router when there is one, replays hang off the
		// client.
		j := i
		ids := map[string]int{}
		for j < len(t.spans) && t.spans[j].Op == t.spans[i].Op {
			if _, ok := ids[t.spans[j].Name]; !ok {
				ids[t.spans[j].Name] = j + 1
			}
			j++
		}
		for k := i; k < j; k++ {
			s := t.spans[k]
			l := line{ID: k + 1, Op: s.Op, Name: s.Name, Kind: s.Kind,
				StartNS: s.Start.Sub(t0).Nanoseconds(), EndNS: s.End.Sub(t0).Nanoseconds(),
				Valuations: s.Valuations, JoinRows: s.JoinRows}
			switch s.Name {
			case "client":
			case "server":
				b := s.Backend
				l.Backend = &b
				l.Parent = ids["router"]
				if l.Parent == 0 {
					l.Parent = ids["client"]
				}
			default:
				l.Parent = ids["client"]
			}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
		i = j
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
