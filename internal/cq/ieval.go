package cq

import (
	"math/bits"

	"repro/internal/query"
	"repro/internal/relation"
)

// This file is the join engine behind every evaluation entry point:
// a backtracking join over dictionary ids and the posting lists of
// relation.IDIndex, in the cost-based order of Tableau.planOrder. At
// each step it probes the bound column with the most distinct values,
// or scans when no argument is bound, charges one gate row per
// candidate, and checks each inequality as soon as both sides are
// bound. EvalGate adds the head cut (Tableau.cutDepth) on top. The
// naive evaluator in package cqtest is its test oracle.

// iterm is one compiled term: a non-negative value is an index into the
// tableau's sorted Vars (a slot), a negative value encodes a constant
// as -(index into iplan.consts)-1.
type iterm int32

// iplan is the compiled slot plan of a tableau: templates, head and
// inequality terms rewritten to variable slots and constant indexes.
type iplan struct {
	consts []relation.Value
	tmpls  [][]iterm
	head   []iterm
	diseqs [][2]iterm
}

// buildIPlan compiles the tableau's terms into slots. It is cheap and
// deterministic, so it runs unconditionally at BuildTableau time.
func (t *Tableau) buildIPlan() *iplan {
	ip := &iplan{}
	slot := make(map[string]int, len(t.Vars))
	for i, v := range t.Vars {
		slot[v] = i
	}
	constIdx := make(map[relation.Value]int)
	term := func(tm query.Term) iterm {
		if tm.IsVar {
			return iterm(slot[tm.Name])
		}
		ci, ok := constIdx[tm.Val]
		if !ok {
			ci = len(ip.consts)
			constIdx[tm.Val] = ci
			ip.consts = append(ip.consts, tm.Val)
		}
		return iterm(-ci - 1)
	}
	ip.tmpls = make([][]iterm, len(t.Templates))
	for i, a := range t.Templates {
		args := make([]iterm, len(a.Args))
		for j, tm := range a.Args {
			args[j] = term(tm)
		}
		ip.tmpls[i] = args
	}
	ip.head = make([]iterm, len(t.Head))
	for i, h := range t.Head {
		ip.head[i] = term(h)
	}
	for _, dq := range t.Diseqs {
		ip.diseqs = append(ip.diseqs, [2]iterm{term(dq.L), term(dq.R)})
	}
	return ip
}

// ijoin is one enumeration's state: the slot binding (ids, -1
// unbound), resolved constant ids, the trail of newly bound slots for
// unwinding, and the per-template instances of the base (and, for
// delta evaluation, delta) database.
type ijoin struct {
	ip   *iplan
	vals []relation.Value // dictionary snapshot for materialization

	ins []*relation.Instance
	ixs []relation.IDIndex

	dins []*relation.Instance // delta instances (delta evaluation only)
	dixs []relation.IDIndex

	cids  []int32 // constant index -> id
	slots []int32 // var slot -> id, -1 unbound
	trail []int32 // newly bound slots, unwound on backtrack

	gs   *gateState
	es   *evalStats
	leaf func() bool

	// EvalGate's head cut (Tableau.cutDepth): at plan position cut
	// (-1 = none) run consults the answer set ans.
	cut int
	ans *ianswers
}

// isetup binds the plan to d: instances and index views by template
// position (an instance whose arity disagrees with its template counts
// as absent), constant ids resolved. The result owns its slot, trail
// and delta buffers, so it can drive any number of enumerations over d
// (see DeltaJoin).
func (t *Tableau) isetup(d *relation.Database, gs *gateState, es *evalStats) *ijoin {
	ip := t.ip
	dict := relation.Shared()
	n := len(t.Templates)
	nc, nv := len(ip.consts), len(t.Vars)
	// One backing array serves cids, slots and the (bounded by nv)
	// trail; one instance slice and one index slice each serve both the
	// base and the delta halves.
	ibuf := make([]int32, nc+nv, nc+2*nv)
	insbuf := make([]*relation.Instance, 2*n)
	ixbuf := make([]relation.IDIndex, 2*n)
	st := &ijoin{
		ip:    ip,
		ins:   insbuf[:n],
		ixs:   ixbuf[:n],
		dins:  insbuf[n:],
		dixs:  ixbuf[n:],
		cids:  ibuf[:nc],
		slots: ibuf[nc : nc+nv],
		trail: ibuf[nc+nv : nc+nv : nc+2*nv],
		gs:    gs,
		es:    es,
		cut:   -1,
	}
	for i, a := range t.Templates {
		if in := d.Instance(a.Rel); in != nil && in.Schema.Arity() == len(a.Args) {
			st.ins[i] = in
			st.ixs[i] = in.IDs()
		}
	}
	for i, c := range ip.consts {
		st.cids[i] = dict.Intern(c)
	}
	for i := range st.slots {
		st.slots[i] = -1
	}
	st.vals = dict.Snapshot()
	return st
}

// bindDelta points the delta half of the join at delta's instances,
// by template position, under isetup's arity rule.
func (st *ijoin) bindDelta(templates []query.RelAtom, delta *relation.Database) {
	for i, a := range templates {
		st.dins[i], st.dixs[i] = nil, relation.IDIndex{}
		if in := delta.Instance(a.Rel); in != nil && in.Schema.Arity() == len(a.Args) {
			st.dins[i] = in
			st.dixs[i] = in.IDs()
		}
	}
}

// resolve returns the id of a term under the current binding; bound is
// false for an unbound variable slot.
func (st *ijoin) resolve(tm iterm) (int32, bool) {
	if tm < 0 {
		return st.cids[-tm-1], true
	}
	id := st.slots[tm]
	return id, id >= 0
}

// unwind resets the slots bound since mark.
func (st *ijoin) unwind(mark int) {
	for i := len(st.trail) - 1; i >= mark; i-- {
		st.slots[st.trail[i]] = -1
	}
	st.trail = st.trail[:mark]
}

// iframe carries the recursion continuation through enum/tryRank
// without per-depth closures: plain join (delta=false) resumes run,
// delta join resumes runDelta.
type iframe struct {
	delta   bool
	order   []int
	k       int
	deltaAt int
}

func (st *ijoin) next(f iframe) bool {
	if f.delta {
		return st.runDelta(f.order, f.k+1, f.deltaAt)
	}
	return st.run(f.order, f.k+1)
}

// run recursively matches template order[k], under EvalGate's head cut
// when one is set.
func (st *ijoin) run(order []int, k int) bool {
	if k == len(order) {
		return st.leaf()
	}
	cut := k == st.cut
	if cut && st.ans.answered(st) {
		return true
	}
	ti := order[k]
	if st.ins[ti] == nil {
		return true
	}
	if st.enum(st.ixs[ti], st.ip.tmpls[ti], iframe{order: order, k: k}) {
		return true
	}
	return cut && st.ans.resume()
}

// runDelta is run for the differential join: template idx[k] reads
// only delta when it is the deltaAt position, otherwise d then delta.
// The plan is positional: delta instances are typically tiny, so the
// deltaAt template leads and binds its variables first.
func (st *ijoin) runDelta(idx []int, k, deltaAt int) bool {
	if k == len(idx) {
		return st.leaf()
	}
	ti := idx[k]
	args := st.ip.tmpls[ti]
	f := iframe{delta: true, order: idx, k: k, deltaAt: deltaAt}
	if ti == deltaAt {
		if st.dins[ti] == nil {
			return true
		}
		return st.enum(st.dixs[ti], args, f)
	}
	if st.ins[ti] != nil && !st.enum(st.ixs[ti], args, f) {
		return false
	}
	if st.dins[ti] != nil && !st.enum(st.dixs[ti], args, f) {
		return false
	}
	return true
}

// runDeltaAll drives one delta pass per template position, with a
// fresh binding each time.
func (st *ijoin) runDeltaAll(n int) {
	var ib [8]int
	idx := ib[:min(n, len(ib))]
	if n > len(ib) {
		idx = make([]int, n)
	}
	for j := 0; j < n; j++ {
		idx[0] = j
		p := 1
		for i := 0; i < n; i++ {
			if i != j {
				idx[p] = i
				p++
			}
		}
		for s := range st.slots {
			st.slots[s] = -1
		}
		st.trail = st.trail[:0]
		if !st.runDelta(idx, 0, j) {
			return
		}
	}
}

// enum enumerates the candidate rows of one template against one
// instance: when an argument is bound, the posting container of the
// bound column with the most distinct values (the first such column on
// ties), otherwise the full rank scan. Both visit rows in ascending
// rank, i.e. in Tuples() order.
func (st *ijoin) enum(ix relation.IDIndex, args []iterm, f iframe) bool {
	probeCol, bestDc := -1, -1
	var probeID int32
	for i, a := range args {
		id, bound := st.resolve(a)
		if !bound {
			continue
		}
		if dc := ix.Distinct(i); dc > bestDc {
			probeCol, probeID, bestDc = i, id, dc
		}
	}
	if probeCol >= 0 {
		st.es.probes++
		if ix.Small() {
			// Tiny instance (a per-valuation Δ): filter the rank scan
			// instead of building posting containers. Skipped rows are
			// not charged, exactly as rows outside a posting bucket
			// never were.
			col := ix.Col(probeCol)
			for r := range col {
				if col[r] != probeID {
					continue
				}
				if !st.tryRank(ix, args, int32(r), f) {
					return false
				}
			}
			return true
		}
		p := ix.Postings(probeCol, probeID)
		if p.Bits != nil {
			for w, word := range p.Bits.Words() {
				for word != 0 {
					r := int32(w<<6 + bits.TrailingZeros64(word))
					word &= word - 1
					if !st.tryRank(ix, args, r, f) {
						return false
					}
				}
			}
			return true
		}
		for _, r := range p.Ranks {
			if !st.tryRank(ix, args, r, f) {
				return false
			}
		}
		return true
	}
	st.es.scans++
	n := int32(ix.Rows())
	for r := int32(0); r < n; r++ {
		if !st.tryRank(ix, args, r, f) {
			return false
		}
	}
	return true
}

// tryRank charges one candidate row, matches the template args against
// it by integer compare, checks the inequalities that just became
// decidable, and recurses. Returning false stops the whole enumeration
// (gate trip or fn stop); a mere match failure returns true.
func (st *ijoin) tryRank(ix relation.IDIndex, args []iterm, rank int32, f iframe) bool {
	st.es.rows++
	if !st.gs.step() {
		return false
	}
	mark := len(st.trail)
	for i, a := range args {
		cid := ix.Col(i)[rank]
		if a < 0 {
			if st.cids[-a-1] != cid {
				st.unwind(mark)
				return true
			}
		} else if s := st.slots[a]; s >= 0 {
			if s != cid {
				st.unwind(mark)
				return true
			}
		} else {
			st.slots[a] = cid
			st.trail = append(st.trail, int32(a))
		}
	}
	for _, dq := range st.ip.diseqs {
		l, lb := st.resolve(dq[0])
		r, rb := st.resolve(dq[1])
		if lb && rb && l == r {
			st.unwind(mark)
			return true
		}
	}
	cont := st.next(f)
	st.unwind(mark)
	return cont
}

// ianswers is EvalGate's answer set: distinct head rows deduplicated
// on fixed-width id-keys (no per-leaf Binding, HeadTuple or string Key)
// and stored back to back, together with the state of the head cut
// that consults it.
type ianswers struct {
	seen  map[string]bool
	rows  []int32
	count int
	hbuf  []int32 // the current head row
	kbuf  []byte  // hbuf's id-key

	// settled is the head cut's "subtree settled" signal, kept apart
	// from the join's stop return: a leaf below the cut records its
	// head row, sets settled and returns false to unwind the join to
	// the cut, where resume clears it and enumeration continues. A
	// false return with settled clear is a gate trip or a caller stop
	// and keeps unwinding.
	settled bool
}

// resume reports whether a stop that reached the cut level was the
// settled signal (consuming it) rather than a stop of the whole join.
func (a *ianswers) resume() bool {
	if !a.settled {
		return false
	}
	a.settled = false
	return true
}

// answered loads the current head row into hbuf and kbuf and reports
// whether it is already an answer.
func (a *ianswers) answered(st *ijoin) bool {
	for i, h := range st.ip.head {
		a.hbuf[i], _ = st.resolve(h)
	}
	a.kbuf = relation.AppendIDKey(a.kbuf[:0], a.hbuf)
	return a.seen[string(a.kbuf)]
}

// add records the row in hbuf and kbuf as an answer.
func (a *ianswers) add() {
	a.seen[string(a.kbuf)] = true
	a.rows = append(a.rows, a.hbuf...)
	a.count++
}

// answerLeaf is EvalGate's leaf. Without a cut it records the match's
// head row if new. Below a cut the row is the one answered loaded at
// the cut, new by its test: the leaf records it and reports the
// subtree settled, which unwinds the join to the cut.
func (st *ijoin) answerLeaf() bool {
	a := st.ans
	if st.cut < 0 {
		if !a.answered(st) {
			a.add()
		}
		return true
	}
	a.add()
	a.settled = true
	return false
}

// bindingLeaf adapts a Binding-consuming fn to the slot engine: one
// reused map is refreshed from the slots at each leaf. Every tableau
// variable occurs in a template (BuildTableau), so all slots are bound
// there.
func (st *ijoin) bindingLeaf(vars []string, fn func(query.Binding) bool) func() bool {
	b := make(query.Binding, len(vars))
	return func() bool {
		for s, name := range vars {
			b[name] = st.vals[st.slots[s]]
		}
		return fn(b)
	}
}

// DeltaJoin is a tableau's differential join (see EvalFuncDeltaGate)
// prepared once against a fixed base database D: instances and index
// views bound by template position, constant ids resolved, and the
// slot, trail and head buffers allocated. Each Run then only binds the
// Δ instances and enumerates, so a decision procedure that checks one
// small Δ per candidate valuation pays the setup once per search.
//
// A DeltaJoin is single-goroutine state; Clone gives each search
// worker its own. The binding to D is read-only and shared, so D must
// not be mutated while any DeltaJoin over it is in use.
type DeltaJoin struct {
	t    *Tableau
	st   ijoin
	gs   gateState
	es   evalStats
	hbuf []int32
	fn   func(head []int32) bool
}

// PrepareDelta binds the tableau to d for repeated differential
// evaluation.
func (t *Tableau) PrepareDelta(d *relation.Database) *DeltaJoin {
	dj := &DeltaJoin{t: t, st: *t.isetup(d, nil, nil), hbuf: make([]int32, len(t.Head))}
	dj.st.es = &dj.es
	dj.st.leaf = dj.headLeaf
	return dj
}

// Clone returns an independent DeltaJoin sharing the read-only binding
// to D.
func (dj *DeltaJoin) Clone() *DeltaJoin {
	n, nv := len(dj.st.ins), len(dj.st.slots)
	c := &DeltaJoin{t: dj.t, st: dj.st, hbuf: make([]int32, len(dj.hbuf))}
	c.st.dins = make([]*relation.Instance, n)
	c.st.dixs = make([]relation.IDIndex, n)
	ibuf := make([]int32, nv, 2*nv)
	c.st.slots, c.st.trail = ibuf[:nv], ibuf[nv:nv]
	for i := range c.st.slots {
		c.st.slots[i] = -1
	}
	c.st.es = &c.es
	c.st.leaf = c.headLeaf
	return c
}

// headLeaf hands the leaf's head row, as ids, to the Run callback.
func (dj *DeltaJoin) headLeaf() bool {
	for i, h := range dj.st.ip.head {
		dj.hbuf[i], _ = dj.st.resolve(h)
	}
	return dj.fn(dj.hbuf)
}

// Run evaluates the differential matches of the tableau over (D, delta)
// exactly as EvalFuncDeltaGate does — the same enumeration, row charges
// and gate flush points — handing each match's head row to fn as
// dictionary ids (the slice is reused between calls). fn returning
// false stops the enumeration.
func (dj *DeltaJoin) Run(delta *relation.Database, g *query.Gate, fn func(head []int32) bool) error {
	dj.fn = fn
	err := dj.run(delta, g)
	dj.fn = nil
	return err
}

// run binds delta and drives one delta pass per template position
// under a fresh per-evaluation gate state.
func (dj *DeltaJoin) run(delta *relation.Database, g *query.Gate) error {
	st := &dj.st
	st.bindDelta(dj.t.Templates, delta)
	st.gs = nil
	if g != nil {
		dj.gs = gateState{g: g}
		st.gs = &dj.gs
	}
	dj.es = evalStats{}
	st.runDeltaAll(len(dj.t.Templates))
	clear(st.dins)
	clear(st.dixs)
	dj.es.flush()
	return st.gs.finish()
}
