package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// setups is how many times a run sets the workload up; setup_s is the
// median, and the last set-up serves the measured phase.
const setups = 5

func run(cfg runConfig) (*result, error) {
	w := workloads[cfg.workload]
	tr := newTracer(cfg.delay)
	var wants []string
	if cfg.workload != "sat-search" {
		oc := newCRMScenario()
		if err := oc.crmOracle(); err != nil {
			return nil, err
		}
		for _, q := range oc.queries {
			wants = append(wants, q.want)
		}
	}

	var e *env
	var times []setupTimes
	for k := 0; k < setups; k++ {
		if e != nil {
			e.teardown()
		}
		runtime.GC()
		var st setupTimes
		var err error
		if e, st, err = setup(cfg.workload, cfg, tr, wants); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, st)
	}
	defer e.teardown()
	ms := map[string]metric{}
	res := &result{Metrics: ms}
	extra := e.warm.counts("warmup")

	phaseSource := func(phase string, limit int) func(c int) source {
		return func(c int) source { return e.source(c, phase, limit) }
	}
	limit := w.opsPerSecond * cfg.seconds
	if !cfg.trace {
		st := newStats()
		runClients(e, w.clients, phaseSource("measured", limit), time.Now().Add(time.Duration(cfg.seconds)*time.Second), st, nil)
		bad, verified, err := e.verifyFinal()
		if err != nil {
			return nil, err
		}
		res.Attempted = st.attempted() + int64(verified)
		res.Failed = st.failed() + int64(bad)

		checks := st.latencies("check")
		ms["setup_s"] = metric{medianSetup(times, func(s setupTimes) time.Duration { return s.total }), "s"}
		ms["check_p50_ms"] = metric{percentile(checks, 0.5), "ms"}
		ms["check_p90_ms"] = metric{percentile(checks, 0.9), "ms"}
		ms["ops_per_s"] = metric{st.opsPerSecond(), "1/s"}
		extra = append(extra, st.counts("measured")...)
		extra = append(extra, fmt.Sprintf("check_samples=%d error_ratio=%g", len(checks), float64(res.Failed)/float64(res.Attempted)))
		if muts := st.latencies("mutation"); len(muts) > 0 {
			extra = append(extra, fmt.Sprintf("mutation_p50_ms=%.6f mutation_p90_ms=%.6f mutation_samples=%d",
				percentile(muts, 0.5), percentile(muts, 0.9), len(muts)))
		}
		// The heap is read once the benchmark's own samples are dropped,
		// so it holds the servers' state and the scenario only.
		st, checks = nil, nil
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		ms["live_heap_mb"] = metric{float64(mem.HeapAlloc) / 1e6, "MB"}
	} else {
		if err := traced(cfg, e, tr, times, res, &extra); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	report(os.Stdout, cfg.workload, ms, extra)
	return res, nil
}

// traced runs an untraced reference pass and a traced pass of half the
// run each, then the quiesced allocation count, and reports the
// per-layer metrics. crm-cluster's passes use one client, so that
// every backend span belongs to the single outstanding operation.
func traced(cfg runConfig, e *env, tr *tracer, times []setupTimes, res *result, extra *[]string) error {
	w := e.w
	clients := w.clients
	if w.backends > 1 {
		clients = 1
	}
	half := time.Duration(cfg.seconds) * time.Second / 2
	limit := w.opsPerSecond * cfg.seconds / 2
	src := func(phase string) func(c int) source {
		return func(c int) source { return e.source(c, phase, limit) }
	}
	before, err := e.forwards()
	if err != nil {
		return err
	}

	ref := newStats()
	runClients(e, clients, src("reference"), time.Now().Add(half), ref, nil)
	tr.on.Store(true)
	st := newStats()
	occ := sampleOccupancy()
	runClients(e, clients, src("measured"), time.Now().Add(half), st, e.replay)
	occupancy := occ()
	tr.on.Store(false)
	allocs, err := tr.allocsPerCheck()
	if err != nil {
		return err
	}
	after, err := e.forwards()
	if err != nil {
		return err
	}
	bad, verified, err := e.verifyFinal()
	if err != nil {
		return err
	}
	res.Attempted = ref.attempted() + st.attempted() + int64(verified)
	res.Failed = ref.failed() + st.failed() + int64(bad+tr.replayFailure)

	ms := res.Metrics
	lt := tr.layerTimes()
	val := func(name string) float64 {
		if m := lt[name]; m != nil {
			return m.value()
		}
		return 0
	}
	for _, name := range []string{"server.handle_ms", "server.decode_ms", "server.other_ms", "textq.parse_facts_ms",
		"core.rcdp_ms", "cq.eval_ms", "cc.satisfied_ms", "client.overhead_ms"} {
		ms[name] = metric{val(name), "ms"}
	}
	ms["core.valuations_per_check"] = metric{val("core.valuations_per_check"), "count"}
	ms["core.join_rows_per_check"] = metric{val("core.join_rows_per_check"), "count"}
	ms["core.parallel_waste"] = metric{val("core.parallel_waste"), "ratio"}
	ms["core.allocs_per_check"] = metric{allocs, "count"}
	ms["server.queue_occupancy"] = metric{occupancy, "count"}
	ms["setup.generate_s"] = metric{medianSetup(times, func(s setupTimes) time.Duration { return s.generate }), "s"}
	ms["setup.register_s"] = metric{medianSetup(times, func(s setupTimes) time.Duration { return s.register }), "s"}
	ms["setup.warmup_s"] = metric{medianSetup(times, func(s setupTimes) time.Duration { return s.warmup }), "s"}
	ms["trace.overhead_ratio"] = metric{st.opsPerSecond() / ref.opsPerSecond(), "ratio"}

	// Layers only some workloads pass through are reported on the lines
	// before the result, where they apply.
	for _, name := range []string{"textq.parse_problem_ms", "core.rcdp_served_ms", "router.self_ms", "router.broadcast_ms", "server.mutation_handle_ms"} {
		if m := lt[name]; m != nil {
			*extra = append(*extra, fmt.Sprintf("%s=%.6f ms (n=%d)", name, m.value(), m.n))
		}
	}
	if e.router != nil {
		var sum, most int64
		for i := range before {
			d := after[i] - before[i]
			sum += d
			if d > most {
				most = d
			}
		}
		*extra = append(*extra, fmt.Sprintf("router.backend_share_max=%.6f ratio", float64(most)/float64(sum)))
		reused, rechecked, muts := 0, 0, 0
		for _, x := range st.samples {
			if x.kind == "mutation" && x.outcome == okOutcome {
				reused += x.reused
				rechecked += x.rechecked
				muts++
			}
		}
		*extra = append(*extra,
			fmt.Sprintf("core.gate_hit_ratio=%.6f ratio", float64(reused)/float64(reused+rechecked)),
			fmt.Sprintf("core.rechecks_per_mutation=%.6f count", float64(rechecked)/float64(muts)))
	}
	*extra = append(*extra, ref.counts("reference")...)
	*extra = append(*extra, st.counts("traced")...)
	*extra = append(*extra, fmt.Sprintf("spans=%d file=%s replay_failures=%d", len(tr.spans), cfg.spans, tr.replayFailure))
	return tr.writeSpans(cfg.spans)
}

// medianSetup is the median of one part over the run's set-ups, in s.
func medianSetup(times []setupTimes, part func(setupTimes) time.Duration) float64 {
	xs := make([]float64, len(times))
	for i, t := range times {
		xs[i] = part(t).Seconds()
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// sampleOccupancy samples obs.ServeQueueOccupancy every millisecond
// until the returned function is called, which returns the mean.
func sampleOccupancy() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var sum, n float64
		for {
			select {
			case <-tick.C:
				sum += float64(obs.ServeQueueOccupancy.Value())
				n++
			case <-stop:
				if n == 0 {
					n = 1
				}
				done <- sum / n
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

// forwards reads the router's per-backend forward counters (nil
// without a router).
func (e *env) forwards() ([]int64, error) {
	if e.router == nil {
		return nil, nil
	}
	var rows []server.BackendStatus
	if err := e.get(e.base+"/v1/backends", &rows); err != nil {
		return nil, err
	}
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r.Forwards
	}
	return out, nil
}
