package cq

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
)

// indexJoin gates the indexed join engine. When disabled (the -noindex
// ablation), evaluation falls back to the original greedy planner and
// pure nested-loop scans, giving a clean before/after comparison.
var indexJoin atomic.Bool

func init() { indexJoin.Store(true) }

// SetIndexJoin toggles the indexed join engine and returns the previous
// setting, so callers can restore it: defer cq.SetIndexJoin(cq.SetIndexJoin(x)).
func SetIndexJoin(on bool) bool { return indexJoin.Swap(on) }

// IndexJoinEnabled reports whether the indexed join engine is active.
func IndexJoinEnabled() bool { return indexJoin.Load() }

// Eval evaluates the CQ over the database and returns the set of answer
// tuples in deterministic order. Boolean queries return either the empty
// result or a single empty tuple. The tableau is compiled once per query
// identity and cached (see Compiled).
func (q *CQ) Eval(d *relation.Database) []relation.Tuple {
	t, err := q.Compiled()
	if err != nil {
		return nil // unsatisfiable queries have empty answers everywhere
	}
	return t.Eval(d)
}

// EvalGate is Eval under gate governance: enumeration charges one
// row-step per candidate tuple and stops with the gate's error as soon
// as the budget trips or the context is cancelled. Answers computed
// before the stop are discarded (a partial answer set is not a sound
// answer set). Each distinct answer is enumerated through one witness
// only (the head cut, see Tableau.EvalGate), so the charges count the
// rows needed to settle the answer set, not every match.
func (q *CQ) EvalGate(d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	t, err := q.Compiled()
	if err != nil {
		return nil, nil // unsatisfiable queries have empty answers everywhere
	}
	return t.EvalGate(d, g)
}

// EvalBool evaluates a Boolean query.
func (q *CQ) EvalBool(d *relation.Database) bool {
	return len(q.Eval(d)) > 0
}

// Eval evaluates the tableau over the database. Atoms are joined in a
// cost-based order with index lookups on bound columns; inequality
// conditions are checked as soon as both sides are bound.
func (t *Tableau) Eval(d *relation.Database) []relation.Tuple {
	out, _ := t.EvalGate(d, nil)
	return out
}

// EvalGate is Eval under gate governance (see CQ.EvalGate). It needs
// one witness per answer, not every match, and cuts the join to match:
// once the plan has bound every head variable (headCutDepth), a head
// row that is already an answer skips its subtree, and a new one is
// enumerated only to its first complete match, recorded, and the join
// resumes at the cut level. Answers, their order and the gate's error
// semantics are those of a full enumeration; only the rows charged
// shrink. EvalFunc*, the differential join and DeltaJoin enumerate
// every match.
func (t *Tableau) EvalGate(d *relation.Database, g *query.Gate) ([]relation.Tuple, error) {
	if out, handled, err := t.evalGateInterned(d, g); handled {
		return out, err
	}
	hc := &headCut{t: t, depth: -1, results: make(map[string]relation.Tuple), hbuf: make(relation.Tuple, len(t.Head))}
	if err := t.evalLegacy(d, g, hc.leaf, hc); err != nil {
		return nil, err
	}
	out := make([]relation.Tuple, 0, len(hc.results))
	for _, tup := range hc.results {
		out = append(out, tup)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// headCutDepth returns the plan position of EvalGate's head cut for a
// join order: the first k such that templates order[:k] bind every
// head variable, after which every match of a subtree has the same
// head row. It is 0 for a Boolean or all-constant head, and -1 (no
// cut) when only the last template completes the head or some head
// variable is bound by no template. Both engines take the cut here.
func (t *Tableau) headCutDepth(order []int) int {
	depth := 0
	for _, h := range t.Head {
		if !h.IsVar {
			continue
		}
		k := slices.IndexFunc(order, func(ti int) bool {
			return slices.ContainsFunc(t.Templates[ti].Args, func(a query.Term) bool {
				return a.IsVar && a.Name == h.Name
			})
		})
		if k < 0 {
			return -1
		}
		depth = max(depth, k+1)
	}
	if depth == len(order) {
		return -1
	}
	return depth
}

// cutSignal is the head cut's "subtree settled" signal, kept apart
// from the join's stop return: a leaf below the cut records its head
// row, sets settled and returns false to unwind the join to the cut,
// where resume clears it and enumeration continues. A false return
// with settled clear is a gate trip or a caller stop and keeps
// unwinding.
type cutSignal struct{ settled bool }

// resume reports whether a stop that reached the cut level was the
// settled signal (consuming it) rather than a stop of the whole join.
func (c *cutSignal) resume() bool {
	if !c.settled {
		return false
	}
	c.settled = false
	return true
}

// headCut is EvalGate's answer set on the legacy engine, together with
// the state of the head cut that consults it.
type headCut struct {
	cutSignal
	t       *Tableau
	depth   int // plan position of the cut; -1 = none
	results map[string]relation.Tuple
	hbuf    relation.Tuple // the head row at the cut
	kbuf    []byte         // hbuf's Key
}

// answered loads the head row under b into hbuf and kbuf and reports
// whether it is already an answer.
func (hc *headCut) answered(b query.Binding) bool {
	for i, h := range hc.t.Head {
		hc.hbuf[i], _ = b.Resolve(h)
	}
	hc.kbuf = hc.hbuf.AppendKey(hc.kbuf[:0])
	_, ok := hc.results[string(hc.kbuf)]
	return ok
}

// leaf records the head row of a complete match. Below a cut that row
// is the one answered loaded, new by its test, so the leaf stores it
// and reports the subtree settled, which unwinds the join to the cut.
func (hc *headCut) leaf(b query.Binding) bool {
	if hc.depth < 0 {
		if h, ok := hc.t.HeadTuple(b); ok {
			hc.results[h.Key()] = h
		}
		return true
	}
	hc.results[string(hc.kbuf)] = hc.hbuf.Clone()
	hc.settled = true
	return false
}

// EvalFunc enumerates all satisfying bindings of the tableau over d,
// invoking fn for each; enumeration stops early when fn returns false.
// The binding passed to fn is reused between calls — clone it to keep.
func (t *Tableau) EvalFunc(d *relation.Database, fn func(query.Binding) bool) {
	t.EvalFuncGate(d, nil, fn)
}

// EvalFuncGate is EvalFunc under gate governance: each candidate tuple
// enumerated by the join charges one row-step on g, and the first gate
// error aborts enumeration and is returned. A nil gate is free.
func (t *Tableau) EvalFuncGate(d *relation.Database, g *query.Gate, fn func(query.Binding) bool) error {
	if handled, err := t.evalFuncInterned(d, g, fn); handled {
		return err
	}
	return t.evalLegacy(d, g, fn, nil)
}

// evalLegacy runs the legacy engine's join, under EvalGate's head cut
// when hc is non-nil.
func (t *Tableau) evalLegacy(d *relation.Database, g *query.Gate, fn func(query.Binding) bool, hc *headCut) error {
	if len(t.Templates) == 0 {
		// A query without relation atoms never arises from Validate'd
		// input, but handle it as "true once" if diseqs hold on the
		// empty binding (i.e. there are no variable diseqs).
		b := query.Binding{}
		if t.DiseqsHold(b) {
			fn(b)
		}
		return nil
	}
	order := t.planOrder(d)
	if hc != nil {
		hc.depth = t.headCutDepth(order)
	}
	b := make(query.Binding, len(t.Vars))
	gs := gate(g)
	var es evalStats
	t.join(d, order, 0, b, fn, gs, &es, hc)
	es.flush()
	return gs.finish()
}

// evalStats accumulates one enumeration's observability counts in
// plain stack-local integers — the same batching discipline as
// gateState: the hot join loop pays a non-atomic increment per row,
// and the shared obs counters are charged once when the enumeration
// ends, keeping the instrumented path within noise of the
// uninstrumented one (BenchmarkObsOverhead).
type evalStats struct {
	rows   int64 // candidate join rows enumerated
	probes int64 // join steps answered from a column index
	scans  int64 // join steps answered by a full instance scan
}

// flush charges the accumulated counts to the process-global metrics.
func (es *evalStats) flush() {
	obs.Evals.Inc()
	obs.JoinRows.Add(es.rows)
	obs.IndexProbes.Add(es.probes)
	obs.FullScans.Add(es.scans)
}

// gateState threads a gate through the join recursion. The join's
// boolean "continue" protocol cannot carry an error, so the first gate
// error is parked here and the recursion unwinds through the ordinary
// stop path. A nil *gateState (ungoverned evaluation) costs one nil
// check per row.
//
// Row charges are batched: the per-evaluation pending counter (plain,
// single-goroutine) absorbs the per-row cost and is flushed to the
// shared gate every gateFlushRows rows and once more when enumeration
// ends, so totals stay exact while the hot loop pays neither an atomic
// increment nor a cancellation check per row. Cancellation and budget
// stops are therefore detected within gateFlushRows row-steps.
type gateState struct {
	g       *query.Gate
	err     error
	pending int64
}

// gateFlushRows is the row-charge batching granularity: small enough
// that a stop is near-immediate on human scales, large enough that the
// shared atomic and the done-channel check vanish from per-row cost
// (see BenchmarkEvalGateOverhead).
const gateFlushRows = 64

// gate wraps a Gate for the join recursion; nil stays nil so the
// ungoverned path keeps its zero-cost contract.
func gate(g *query.Gate) *gateState {
	if g == nil {
		return nil
	}
	return &gateState{g: g}
}

// step charges one row and reports whether enumeration may continue.
func (gs *gateState) step() bool {
	if gs == nil {
		return true
	}
	gs.pending++
	if gs.pending < gateFlushRows {
		return true
	}
	return gs.flush()
}

// flush forwards the pending rows to the shared gate.
func (gs *gateState) flush() bool {
	err := gs.g.StepN(gs.pending)
	gs.pending = 0
	if err != nil {
		if gs.err == nil {
			gs.err = err
		}
		return false
	}
	return true
}

// finish flushes the remainder when enumeration ends and returns the
// first gate error, if any. Nil-safe for the ungoverned path.
func (gs *gateState) finish() error {
	if gs == nil {
		return nil
	}
	if gs.err == nil && gs.pending > 0 {
		gs.flush()
	}
	return gs.err
}

// planOrder orders the templates for the join. With the indexed engine
// it is cost-based: each step picks the unused template with the lowest
// estimated candidate count given the variables bound so far, where an
// equality probe on a bound column of instance in is expected to match
// about in.Len()/in.Distinct(col) tuples and an unbound template costs a
// full scan. Ties break toward fewer newly-bound variables, then lowest
// template position, keeping the order deterministic. With the engine
// disabled it falls back to the original greedy most-bound-first order.
func (t *Tableau) planOrder(d *relation.Database) []int {
	if !IndexJoinEnabled() || d == nil {
		return t.planOrderGreedy()
	}
	n := len(t.Templates)
	used := make([]bool, n)
	bound := make(map[string]bool)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestCost, bestNew := -1, 0, 0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			cost, newVars := templateCost(d, t.Templates[i], bound)
			if best == -1 || cost < bestCost || (cost == bestCost && newVars < bestNew) {
				best, bestCost, bestNew = i, cost, newVars
			}
		}
		used[best] = true
		order = append(order, best)
		for _, a := range t.Templates[best].Args {
			if a.IsVar {
				bound[a.Name] = true
			}
		}
	}
	return order
}

// templateCost estimates how many candidate tuples matching the atom
// will be enumerated under the current bound-variable set, and counts
// the variables the atom would newly bind.
func templateCost(d *relation.Database, atom query.RelAtom, bound map[string]bool) (cost, newVars int) {
	for _, arg := range atom.Args {
		if arg.IsVar && !bound[arg.Name] {
			newVars++
		}
	}
	in := d.Instance(atom.Rel)
	if in == nil || in.Len() == 0 {
		return 0, newVars
	}
	cost = in.Len()
	for col, arg := range atom.Args {
		if arg.IsVar && !bound[arg.Name] {
			continue
		}
		if dc := in.Distinct(col); dc > 0 {
			if est := (in.Len() + dc - 1) / dc; est < cost {
				cost = est
			}
		}
	}
	return cost, newVars
}

// planOrderGreedy is the legacy planner: order templates so that each
// step binds as few new variables as possible.
func (t *Tableau) planOrderGreedy() []int {
	n := len(t.Templates)
	used := make([]bool, n)
	bound := make(map[string]bool)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestNew := -1, 1<<30
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			newVars := 0
			for _, a := range t.Templates[i].Args {
				if a.IsVar && !bound[a.Name] {
					newVars++
				}
			}
			if newVars < bestNew {
				best, bestNew = i, newVars
			}
		}
		used[best] = true
		order = append(order, best)
		for _, a := range t.Templates[best].Args {
			if a.IsVar {
				bound[a.Name] = true
			}
		}
	}
	return order
}

// joinTuples returns the candidate tuples for matching atom under the
// current binding: the most selective index bucket when some argument is
// already bound (or constant) and indexing is enabled, otherwise the
// full deterministic scan. Index buckets are sorted subsequences of the
// full scan, so candidate enumeration order — and hence every
// enumeration-order-sensitive observation downstream — is unchanged.
// Probe-vs-scan decisions accumulate into es.
func joinTuples(in *relation.Instance, atom query.RelAtom, b query.Binding, es *evalStats) []relation.Tuple {
	if IndexJoinEnabled() {
		if col, val, ok := bestBoundArg(in, atom, b); ok {
			es.probes++
			return in.Lookup(col, val)
		}
	}
	es.scans++
	return in.Tuples()
}

// bestBoundArg picks, among the atom's bound arguments (constants and
// already-bound variables), the column with the most distinct values —
// the most selective equality probe. The first such column wins ties,
// keeping the choice deterministic.
func bestBoundArg(in *relation.Instance, atom query.RelAtom, b query.Binding) (int, relation.Value, bool) {
	best, bestDc := -1, -1
	var bestVal relation.Value
	for i, arg := range atom.Args {
		var v relation.Value
		if arg.IsVar {
			bv, ok := b[arg.Name]
			if !ok {
				continue
			}
			v = bv
		} else {
			v = arg.Val
		}
		if dc := in.Distinct(i); dc > bestDc {
			best, bestDc, bestVal = i, dc, v
		}
	}
	return best, bestVal, best >= 0
}

// join recursively matches template order[k] against the database. At
// EvalGate's cut level (hc non-nil, k == hc.depth) a settled head row
// skips the subtree, and a new one stops at its first match.
func (t *Tableau) join(d *relation.Database, order []int, k int, b query.Binding, fn func(query.Binding) bool, gs *gateState, es *evalStats, hc *headCut) bool {
	if k == len(order) {
		if !t.DiseqsHold(b) {
			return true
		}
		return fn(b)
	}
	cut := hc != nil && k == hc.depth
	if cut && hc.answered(b) {
		return true
	}
	atom := t.Templates[order[k]]
	in := d.Instance(atom.Rel)
	if in == nil {
		return true
	}
	for _, tup := range joinTuples(in, atom, b, es) {
		es.rows++
		if !gs.step() {
			return false
		}
		newly := b.Match(atom, tup)
		if newly == nil {
			continue
		}
		ok := true
		for _, dq := range t.Diseqs {
			if holds, known := dq.Holds(b); known && !holds {
				ok = false
				break
			}
		}
		cont := true
		if ok {
			cont = t.join(d, order, k+1, b, fn, gs, es, hc)
		}
		for _, v := range newly {
			delete(b, v)
		}
		if !cont {
			return cut && hc.resume()
		}
	}
	return true
}

// EvalFuncDelta enumerates bindings of the tableau over d ∪ delta
// restricted to matches that use at least one delta tuple, without ever
// materializing the union. It implements one step of semi-naive
// (differential) evaluation: for each template position j it enumerates
// joins where template j matches only delta and the remaining templates
// match d and then delta, which covers every new match at least once
// (possibly invoking fn more than once per binding, e.g. when several
// templates match delta tuples or a delta tuple already occurs in d).
// fn returning false stops enumeration.
func (t *Tableau) EvalFuncDelta(d, delta *relation.Database, fn func(query.Binding) bool) {
	t.EvalFuncDeltaGate(d, delta, nil, fn)
}

// EvalFuncDeltaGate is EvalFuncDelta under gate governance: each
// candidate tuple charges one row-step; the first gate error aborts
// enumeration and is returned. A nil gate is free.
func (t *Tableau) EvalFuncDeltaGate(d, delta *relation.Database, g *query.Gate, fn func(query.Binding) bool) error {
	if len(t.Templates) == 0 {
		return nil // no templates: answers cannot change
	}
	if handled, err := t.evalFuncDeltaInterned(d, delta, g, fn); handled {
		return err
	}
	gs := gate(g)
	var es evalStats
	for j := range t.Templates {
		b := make(query.Binding, len(t.Vars))
		if !t.joinDelta(d, delta, j, b, fn, gs, &es) {
			break
		}
	}
	es.flush()
	return gs.finish()
}

// joinDelta is join with template deltaAt reading only from delta and
// every other template reading the d/delta overlay. Template order is
// positional (no planning): delta instances are typically tiny, so the
// deltaAt template leads and binds its variables first.
func (t *Tableau) joinDelta(d, delta *relation.Database, deltaAt int, b query.Binding, fn func(query.Binding) bool, gs *gateState, es *evalStats) bool {
	// Visit deltaAt first, then the others positionally.
	idx := make([]int, 0, len(t.Templates))
	idx = append(idx, deltaAt)
	for i := range t.Templates {
		if i != deltaAt {
			idx = append(idx, i)
		}
	}
	var rec func(pos int) bool
	rec = func(pos int) bool {
		if pos == len(idx) {
			if !t.DiseqsHold(b) {
				return true
			}
			return fn(b)
		}
		atom := t.Templates[idx[pos]]
		srcs := [2]*relation.Database{d, delta}
		parts := srcs[:2]
		if idx[pos] == deltaAt {
			parts = srcs[1:2]
		}
		for _, src := range parts {
			in := src.Instance(atom.Rel)
			if in == nil {
				continue
			}
			for _, tup := range joinTuples(in, atom, b, es) {
				es.rows++
				if !gs.step() {
					return false
				}
				newly := b.Match(atom, tup)
				if newly == nil {
					continue
				}
				ok := true
				for _, dq := range t.Diseqs {
					if holds, known := dq.Holds(b); known && !holds {
						ok = false
						break
					}
				}
				cont := true
				if ok {
					cont = rec(pos + 1)
				}
				for _, v := range newly {
					delete(b, v)
				}
				if !cont {
					return false
				}
			}
		}
		return true
	}
	return rec(0)
}
