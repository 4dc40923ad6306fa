package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// outcome classes of one operation.
const (
	okOutcome = iota
	failedOutcome
	refusedOutcome // 429 or 503: a failure the server chose
)

// sample is one finished operation.
type sample struct {
	kind    string
	lat     time.Duration
	outcome int
	// check: the response's stats.valuations; mutation: reused and
	// rechecked watched verdicts.
	valuations        int
	reused, rechecked int
}

// stats collects one phase's samples from all clients.
type stats struct {
	mu      sync.Mutex
	samples []sample
	elapsed time.Duration
}

func newStats() *stats { return &stats{} }

func (s *stats) add(x sample) {
	s.mu.Lock()
	s.samples = append(s.samples, x)
	s.mu.Unlock()
}

func (s *stats) attempted() int64 { return int64(len(s.samples)) }

func (s *stats) failed() int64 {
	n := int64(0)
	for _, x := range s.samples {
		if x.outcome != okOutcome {
			n++
		}
	}
	return n
}

// latencies returns the successful latencies of one kind in ms, sorted.
func (s *stats) latencies(kind string) []float64 {
	var out []float64
	for _, x := range s.samples {
		if x.kind == kind && x.outcome == okOutcome {
			out = append(out, float64(x.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// opsPerSecond is successful operations per second of phase time.
func (s *stats) opsPerSecond() float64 {
	return float64(s.attempted()-s.failed()) / s.elapsed.Seconds()
}

// counts renders the per-kind sent/succeeded/failed/refused line.
func (s *stats) counts(phase string) []string {
	type c struct{ sent, ok, failed, refused int }
	byKind := map[string]*c{}
	for _, x := range s.samples {
		k := byKind[x.kind]
		if k == nil {
			k = &c{}
			byKind[x.kind] = k
		}
		k.sent++
		switch x.outcome {
		case okOutcome:
			k.ok++
		case refusedOutcome:
			k.refused++
			k.failed++
		default:
			k.failed++
		}
	}
	var out []string
	for _, kind := range []string{"check", "mutation"} {
		if k := byKind[kind]; k != nil {
			out = append(out, fmt.Sprintf("phase=%s type=%s sent=%d succeeded=%d failed=%d refused=%d",
				phase, kind, k.sent, k.ok, k.failed, k.refused))
		}
	}
	return out
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// runClients runs n closed-loop clients, each drawing from its own
// source until it ends, and records every operation in st. after, when
// non-nil, runs on the client's goroutine after each operation (the
// traced replay).
func runClients(e *env, n int, src func(c int) source, deadline time.Time, st *stats, after func(o *op, id int64, resp *server.CheckResponse)) {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		next := src(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				o := next(i, deadline)
				if o == nil {
					return
				}
				id, resp := e.do(o, st)
				if after != nil && resp != nil {
					after(o, id, resp)
				}
			}
		}()
	}
	wg.Wait()
	st.elapsed = time.Since(start)
}

// do sends one operation, checks its response and records the sample.
// It returns the operation id and, for a correct check, its response.
func (e *env) do(o *op, st *stats) (int64, *server.CheckResponse) {
	id := e.opSeq.Add(1)
	e.tr.lastOp.Store(id)
	t0 := time.Now()
	status, body, err := e.post(o.path, o.body, id)
	t1 := time.Now()
	e.tr.span(spanRec{Name: "client", Op: id, Kind: o.kind, Start: t0, End: t1})
	x := sample{kind: o.kind, lat: t1.Sub(t0), outcome: failedOutcome}
	var resp *server.CheckResponse
	switch {
	case err != nil:
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		x.outcome = refusedOutcome
	case status != http.StatusOK:
	case o.kind == "check":
		var r server.CheckResponse
		if json.Unmarshal(body, &r) == nil && r.Verdict == o.want {
			x.outcome = okOutcome
			resp = &r
			if r.Stats != nil {
				x.valuations = r.Stats.Valuations
			}
		}
	default:
		var r server.MutationResponse
		if json.Unmarshal(body, &r) == nil && r.Inserted == o.wantIns && r.Deleted == o.wantDel {
			x.outcome = okOutcome
			x.reused, x.rechecked = r.Reused, r.Rechecked
		}
	}
	st.add(x)
	return id, resp
}
