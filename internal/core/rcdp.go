package core

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/cc"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// RCDPResult is the outcome of a relatively-complete-database check.
type RCDPResult struct {
	// Complete reports D ∈ RCQ(Q, Dm, V).
	Complete bool
	// Verdict is the three-valued outcome. The Ctx entry points set it
	// on every result: Complete/Incomplete mirror the boolean when the
	// search finished, VerdictUnknown means governance stopped it
	// first (Complete is then meaningless). The legacy entry points
	// never return Unknown — they translate it into an error.
	Verdict Verdict
	// Reason, when Verdict is Unknown, names the exhausted dimension.
	Reason Reason
	// Stats reports the resources consumed (Ctx entry points only;
	// JoinRows/Tuples are counted only on governed runs).
	Stats BudgetStats
	// Extension, when incomplete, is a set Δ of tuples such that
	// D ∪ Δ is partially closed and Q(D ∪ Δ) ≠ Q(D).
	Extension *relation.Database
	// NewTuple, when incomplete, is a tuple in Q(D ∪ Δ) \ Q(D).
	NewTuple relation.Tuple
	// Disjunct, when incomplete, is the index of the query disjunct
	// that produced the counterexample.
	Disjunct int
	// Valuation, when incomplete, is the witness valuation μ of the
	// disjunct tableau's variables: Extension is μ(T_Disjunct) and
	// NewTuple is μ(u_Disjunct). It is built from the search's id
	// valuation for this result alone, so callers may keep or mutate it.
	Valuation query.Binding
	// Valuations is the number of candidate valuations inspected. It is
	// a work counter, not part of the verdict: the parallel engine
	// counts speculative work that the sequential engine's early return
	// skips, so only Workers=1 runs reproduce it exactly.
	Valuations int
}

// Checker configures the decision procedures. The zero value uses
// pruned backtracking with no budget on a single goroutine... almost:
// Workers=0 means "one worker per CPU", so the zero value actually uses
// all hardware; set Workers=1 for the strictly sequential engine.
type Checker struct {
	// Naive disables inequality pruning and fresh-value symmetry
	// breaking in the valuation search (ablation ABL-1 of DESIGN.md).
	Naive bool
	// MaxValuations, when positive, caps the number of candidate
	// valuations per disjunct; exceeding it returns ErrBudgetExceeded.
	MaxValuations int
	// Workers is the size of the valuation-search worker pool: 0 uses
	// runtime.GOMAXPROCS(0), 1 forces the sequential engine, n > 1 fans
	// the top-level candidate branches of every disjunct out to n
	// goroutines. Verdicts and witnesses are scheduling-independent
	// (see DESIGN.md, "Parallel search"): the parallel engine returns
	// byte-identical verdict/Extension/NewTuple/Disjunct to Workers=1.
	Workers int
	// Budget bounds every check this checker runs (see Budget). Applied
	// by the Ctx entry points and by the legacy wrappers alike; the
	// zero value is unlimited.
	Budget Budget
	// SliceBudget, when set, makes RCDPSliceCtx charge this shared
	// cross-slice valuation ledger instead of a fresh per-slice counter,
	// so a K-way fan-out exhausts the per-disjunct MaxValuations cap at
	// the same total spend as the single-process engines. Nil keeps the
	// legacy per-slice caps. Only RCDPSliceCtx consults it; the other
	// entry points already share one ledger per disjunct.
	SliceBudget *SharedBudget
}

// effectiveWorkers resolves the Workers field to a concrete count.
func (ck *Checker) effectiveWorkers() int {
	if ck.Workers > 0 {
		return ck.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RCDP decides the relatively complete database problem with the
// default checker. See Checker.RCDP.
func RCDP(q qlang.Query, d, dm *relation.Database, v *cc.Set) (*RCDPResult, error) {
	return (&Checker{}).RCDP(q, d, dm, v)
}

// RCDPCtx decides the relatively complete database problem with the
// default checker under context/budget governance. See Checker.RCDPCtx.
func RCDPCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set) (*RCDPResult, error) {
	return (&Checker{}).RCDPCtx(ctx, q, d, dm, v)
}

// RCDP decides RCDP(L_Q, L_C) for monotone L_Q and L_C (CQ, UCQ, ∃FO⁺;
// INDs are CQ constraints): given a query Q, master data Dm, a set V of
// containment constraints and a partially closed database D, it reports
// whether D is complete for Q relative to (Dm, V).
//
// The procedure implements the characterization of Proposition 3.3 and
// Corollaries 3.4/3.5: D is incomplete iff some disjunct tableau
// (T_i, u_i) has a valid valuation μ with values in Adom such that
// μ(u_i) ∉ Q(D) and (D ∪ μ(T_i), Dm) ⊨ V; the returned witness is then
// Δ = μ(T_i). Monotonicity of the languages makes the single-disjunct
// witness exact (the Σ₂ᵖ algorithm of Theorem 3.6 guesses the same
// certificate).
//
// It is an error to call RCDP with FO or FP queries or constraints
// (Theorem 3.1: undecidable) — use BoundedRCDP for those — or with a D
// that is not partially closed with respect to (Dm, V).
//
// RCDP is the ungoverned form of RCDPCtx: it runs with
// context.Background() and surfaces a governance stop (only possible
// when ck.Budget is set, or via the legacy MaxValuations cap) as the
// corresponding sentinel error (ErrBudgetExceeded, query.ErrRowBudget,
// …) instead of an Unknown verdict.
func (ck *Checker) RCDP(q qlang.Query, d, dm *relation.Database, v *cc.Set) (*RCDPResult, error) {
	res, err := ck.RCDPCtx(context.Background(), q, d, dm, v)
	if err != nil {
		return nil, err
	}
	if res.Verdict == VerdictUnknown {
		return nil, res.Reason.Err()
	}
	return res, nil
}

// RCDPCtx is RCDP under context/budget governance. It returns a nil
// error with Verdict=VerdictUnknown (plus the Reason and the consumed
// Stats) when ctx is cancelled, the deadline expires or a budget
// dimension runs out before the search decides; genuine failures
// (undecidable language, D not partially closed, schema errors) are
// still errors. For decisive budgets — far from the amount of work a
// verdict needs — the verdict and reason are identical at Workers=1 and
// Workers=N; near the boundary the parallel engine's speculative work
// can tip a run to either side (see DESIGN.md "Resource governance").
func (ck *Checker) RCDPCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set) (*RCDPResult, error) {
	co := startCheck("rcdp", ck.effectiveWorkers())
	gv := newGovernor(ctx, ck.Budget)
	defer gv.close()
	res, err := ck.rcdp(q, d, dm, v, nil, gv)
	if err != nil {
		if r := reasonOf(err); r != ReasonNone {
			out := &RCDPResult{Verdict: VerdictUnknown, Reason: r, Stats: gv.stats(0)}
			co.done("unknown", r, out.Stats)
			return out, nil
		}
		co.done("error", ReasonNone, gv.stats(0))
		return nil, err
	}
	if res.Complete {
		res.Verdict = VerdictComplete
	} else {
		res.Verdict = VerdictIncomplete
	}
	res.Stats = gv.stats(res.Valuations)
	co.done(res.Verdict.String(), ReasonNone, res.Stats)
	return res, nil
}

// rcdpPrep is the shared setup of a disjunct search: the per-disjunct
// valuation searches over the compiled tableaux (nil entries are
// disjuncts unsatisfiable under domain constraints), the database
// schemas, the already-answered head set, keyed on the head rows'
// fixed-width id-keys (relation.AppendIDKey), and the constraint delta
// checker prepared against (V, D, Dm). Built once per check by
// prepareRCDP and then read-only, it is shared by the sequential
// engine, the parallel engine and the partition-slice runner alike;
// each search worker checks with its own clone of check.
type rcdpPrep struct {
	searches  []*valuationSearch
	schemas   map[string]*relation.Schema
	answerSet map[string]bool
	check     *cc.DeltaChecker
}

// prepareRCDP performs the disjunct-independent setup of an RCDP check:
// the decidability guards, the partial-closure precondition, the Q(D)
// answer set and one valuation search per disjunct tableau. The gate
// charges it makes (constraint check, query evaluation) are exactly the
// sequential engine's setup charges, which is what makes partition
// slices report identical Setup stats on every shard. A nil prep with a
// nil error means the query is unsatisfiable (trivially complete).
func (ck *Checker) prepareRCDP(q qlang.Query, d, dm *relation.Database, v *cc.Set, gate *query.Gate) (*rcdpPrep, error) {
	if !q.Lang().Monotone() {
		return nil, fmt.Errorf("core: RCDP is undecidable for L_Q = %v (Theorem 3.1); use BoundedRCDP", q.Lang())
	}
	if v != nil && !v.AllMonotone() {
		return nil, fmt.Errorf("core: RCDP is undecidable for L_C = %v (Theorem 3.1); use BoundedRCDP", v.MaxLang())
	}
	if ok, err := v.SatisfiedGate(d, dm, gate); err != nil {
		return nil, err
	} else if !ok {
		return nil, fmt.Errorf("core: D is not partially closed with respect to (Dm, V)")
	}

	answers, err := q.EvalGate(d, gate)
	if err != nil {
		return nil, err
	}
	answerSet := idKeySet(answers)

	tableaux := q.Tableaux()
	if len(tableaux) == 0 {
		// Unsatisfiable query: trivially complete.
		return nil, nil
	}
	schemas := schemasOf(d)
	u := NewUniverse(d, dm, q, v, tableauVarCount(tableaux))

	// The inert-position and relevant-value analyses depend only on
	// (Q, V, D, Dm), not on the disjunct: compute them once here and
	// share them read-only across disjuncts (and workers).
	opts := searchOpts{naive: ck.Naive}
	if !ck.Naive {
		opts.v, opts.dm = v, dm
		opts.constrained = inertPositions(v)
		opts.relevant = computeRelevantValues(q, v, d, dm)
	}
	searches := make([]*valuationSearch, len(tableaux))
	for di, t := range tableaux {
		search, ok := newValuationSearch(u, t, schemas, opts)
		if !ok {
			continue // disjunct unsatisfiable under domain constraints
		}
		search.budget = ck.effectiveValuations()
		search.gate = gate
		searches[di] = search
	}
	return &rcdpPrep{searches: searches, schemas: schemas, answerSet: answerSet, check: v.PrepareDelta(d, dm)}, nil
}

// idKeySet returns the set of the tuples' fixed-width id-keys
// (relation.AppendIDKey over the shared dictionary), interning their
// values.
func idKeySet(tuples []relation.Tuple) map[string]bool {
	dict := relation.Shared()
	keys := make(map[string]bool, len(tuples))
	var ids []int32
	var kb []byte
	for _, t := range tuples {
		ids = ids[:0]
		for _, val := range t {
			ids = append(ids, dict.Intern(val))
		}
		kb = relation.AppendIDKey(kb[:0], ids)
		keys[string(kb)] = true
	}
	return keys
}

// rcdp is RCDP with an optional externally-owned worker pool — so that
// RCQP's candidate checks and the RCDP disjunct searches they trigger
// draw goroutines from one shared pool instead of multiplying — and an
// optional governor (nil = ungoverned, zero instrumentation cost).
// Governance stops surface as the gate's errors / ErrBudgetExceeded.
func (ck *Checker) rcdp(q qlang.Query, d, dm *relation.Database, v *cc.Set, pool *workerPool, gv *governor) (*RCDPResult, error) {
	gate := gv.gateOf()
	prep, err := ck.prepareRCDP(q, d, dm, v, gate)
	if err != nil {
		return nil, err
	}
	if prep == nil {
		return &RCDPResult{Complete: true}, nil
	}

	if workers := ck.effectiveWorkers(); workers > 1 {
		if pool == nil {
			pool = newWorkerPool(workers)
		}
		if pool != nil {
			return ck.rcdpParallel(pool, prep, d, dm, gate)
		}
	}

	res := &RCDPResult{Complete: true}
	for di, search := range prep.searches {
		if search == nil {
			continue
		}
		claim, visited, err := search.run(prep.witnessFn(di, gate))
		res.Valuations += visited
		noteDisjunct(di, visited, claim != nil)
		if err != nil {
			return nil, err
		}
		if claim != nil {
			found := claim.(*RCDPResult)
			// Valuations counts everything inspected up to and
			// including this disjunct; later disjuncts are never
			// searched (see TestRCDPValuationsAccounting).
			found.Valuations = res.Valuations
			return found, nil
		}
	}
	return res, nil
}

// witnessFn returns disjunct di's leaf callback: it decides whether a
// complete valuation is a counterexample to completeness and, if so,
// claims the result (see witness).
func (prep *rcdpPrep) witnessFn(di int, gate *query.Gate) leafFn {
	return func(mu *valuation) (any, error) {
		r, err := prep.witness(mu, di, gate)
		if r == nil {
			return nil, err // not a counterexample (or failed); no claim
		}
		return r, nil
	}
}

// witness decides whether the complete valuation mu of disjunct di's
// tableau is a counterexample to completeness — the Proposition 3.3
// test μ(u) ∉ Q(D) and (D ∪ μ(T), Dm) ⊨ V — and if so builds the
// result. It reads only the read-only prep and the worker-owned
// valuation (whose clone of the prepared constraint check it makes on
// first use) and allocates fresh output objects, so the parallel
// engine may call it concurrently from different workers.
func (prep *rcdpPrep) witness(mu *valuation, di int, gate *query.Gate) (*RCDPResult, error) {
	if prep.answerSet[string(mu.headKey())] {
		return nil, nil // already answered; cannot change Q(D)
	}
	delta, err := mu.apply(prep.schemas)
	if err != nil {
		return nil, err
	}
	if err := gate.ChargeTuples(delta.TupleCount()); err != nil {
		return nil, err
	}
	if mu.check == nil {
		mu.check = prep.check.Clone()
	}
	sat, err := mu.check.Satisfied(delta, gate)
	if err != nil {
		return nil, err
	}
	if !sat {
		// Extension violates V; keep searching. The fragment is dead —
		// nothing above retains a reference — so recycle its storage
		// for the next valuation.
		mu.release(delta)
		return nil, nil
	}
	return &RCDPResult{
		Complete:  false,
		Extension: delta,
		NewTuple:  mu.headTuple(),
		Disjunct:  di,
		Valuation: mu.binding(),
	}, nil
}

// rcdpParallel runs the disjunct searches on the worker pool: the
// top-level candidate branches of every disjunct become one flat,
// lexicographically ordered task list, a shared raceCtl arbitrates
// claims to the smallest (disjunct, branch) key, and per-disjunct
// budget controllers preserve the MaxValuations semantics. See
// DESIGN.md, "Parallel search", for the determinism argument.
func (ck *Checker) rcdpParallel(pool *workerPool, prep *rcdpPrep, d, dm *relation.Database,
	gate *query.Gate) (*RCDPResult, error) {
	warmShared(d, dm)
	ctl := newRaceCtl()
	budgets := make([]*budgetCtl, len(prep.searches))
	var tasks []func()
	for di, search := range prep.searches {
		if search == nil {
			continue
		}
		budgets[di] = newBudgetCtl(ck.effectiveValuations())
		tasks = append(tasks, search.branchTasks(ctl, budgets[di], di, prep.witnessFn(di, gate))...)
	}
	pool.run(tasks)

	total := 0
	for _, bud := range budgets {
		if bud != nil {
			total += bud.count()
		}
	}
	val, key, err := ctl.result()
	witnessDisjunct := -1
	if err == nil && key != noKey && val != nil {
		witnessDisjunct = val.(*RCDPResult).Disjunct
	}
	for di, bud := range budgets {
		if bud != nil {
			noteDisjunct(di, bud.count(), di == witnessDisjunct)
		}
	}
	if err != nil {
		return nil, err
	}
	if key == noKey {
		return &RCDPResult{Complete: true, Valuations: total}, nil
	}
	if val == nil {
		// A budget-exhaustion claim won: some disjunct ran out of
		// budget and no witness with a smaller key exists.
		return nil, ErrBudgetExceeded
	}
	r := val.(*RCDPResult)
	r.Valuations = total
	return r, nil
}

// IsComplete is a convenience wrapper returning only the verdict.
func IsComplete(q qlang.Query, d, dm *relation.Database, v *cc.Set) (bool, error) {
	r, err := RCDP(q, d, dm, v)
	if err != nil {
		return false, err
	}
	return r.Complete, nil
}
