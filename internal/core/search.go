package core

import (
	"errors"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/query"
	"repro/internal/relation"
)

// ErrBudgetExceeded is returned when a search visits more candidate
// valuations than the configured cap.
var ErrBudgetExceeded = errors.New("core: valuation budget exceeded")

// errStop signals early termination of a search from a callback.
var errStop = errors.New("core: stop")

// unbound marks an unassigned slot of a valuation.
const unbound = int32(-1)

// valuationSearch enumerates valid valuations μ of a tableau with
// values in Adom, per the definition in Section 3.2: every variable y
// draws from adom(y), and μ must observe the tableau's inequality
// conditions (that is, Q(μ(T_Q)) is nonempty).
//
// Variables are assigned in template-major order (the variables of
// template 1 first, and so on) so that tuple templates become ground as
// early as possible; an optional IND pruner then rejects partial
// valuations whose ground templates already violate an inclusion
// dependency of V — the backtracking realization of the Σ₂ᵖ
// certificate guess of Theorem 3.6.
//
// The search runs in id space over a slot plan compiled once per
// disjunct: variable i of the order is slot i of a []int32 valuation
// holding ids of the shared dictionary, and the templates, the head and
// the inequality conditions are arrays of slots and constant ids.
// Every slot carries its candidate ids in try order, so a search node
// builds no list, looks up no string and allocates nothing. Values —
// and query.Binding — appear only when a witness leaves the search.
//
// Sharing discipline: everything here is read-only after
// newValuationSearch (budget and gate are set once by the caller
// before the search runs), so a search is shared by the worker
// goroutines of a parallel search (see parallel.go); the valuation
// itself, with its scratch buffers, is private to each worker.
type valuationSearch struct {
	t    *cq.Tableau
	doms map[string]relation.Domain
	// order names the variable of each slot.
	order []string

	// templates, head and diseqs are the tableau's tuple templates,
	// output summary and inequality conditions over slots.
	templates [][]slotTerm
	head      []slotTerm
	diseqs    []slotDiseq
	// diseqsAt[i] indexes the inequalities whose highest slot is i: the
	// ones that become decidable when slot i is assigned.
	diseqsAt [][]int

	// cands[i] holds slot i's candidate ids in try order. Entries from
	// fixed[i] on are the universe's fresh pool (a contiguous suffix),
	// of which fresh-value symmetry breaking tries only a prefix.
	cands [][]int32
	fixed []int
	// fresh is the universe's fresh pool as ids.
	fresh []int32

	// pruner, when non-nil, rejects partial valuations violating INDs.
	// Pruning is an optimization only: callers re-check the full
	// constraint set on complete valuations, so verdicts never depend
	// on it (naive mode disables it entirely).
	pruner *indPruner

	// naive disables inequality pruning, IND pruning, inert-variable
	// collapsing, relevant-value restriction and fresh-value symmetry
	// breaking; kept for the ablation benchmarks.
	naive bool

	// answered, when non-nil, turns on the head cut: it is the check's
	// Q(D) answer set, keyed on the head rows' id-keys. Once headAt,
	// the highest head slot, is assigned and admitted, a branch whose
	// μ(u) is already answered is skipped whole, since every completion
	// has the same head and Proposition 3.3 rules all of them out. A
	// head without slots (headAt < 0) is probed once before the search
	// (see rcdpPrep.cutHeads).
	answered map[string]bool
	headAt   int

	// budget, when positive, caps the number of complete candidate
	// valuations visited.
	budget int

	// gate, when non-nil, is the check's governance gate: every search
	// node polls it so cancellation and cross-cutting budgets (rows,
	// tuples) stop the search promptly. Shared (atomics only) between
	// the sequential engine and parallel branch workers.
	gate *query.Gate
}

// slotTerm is a compiled tableau term: a valuation slot, or a constant
// id when slot is negative.
type slotTerm struct {
	slot int32
	id   int32
}

// resolve returns the term's id under the valuation (unbound for an
// unassigned slot).
func (st slotTerm) resolve(ids []int32) int32 {
	if st.slot >= 0 {
		return ids[st.slot]
	}
	return st.id
}

// slotDiseq is a compiled inequality condition l ≠ r.
type slotDiseq struct{ l, r slotTerm }

// holds reports whether the inequality holds; both sides must be bound.
func (d slotDiseq) holds(ids []int32) bool { return d.l.resolve(ids) != d.r.resolve(ids) }

// searchOpts selects the exact reductions a valuation search applies;
// a nil field disables its reduction. naive additionally turns off the
// slot-by-slot inequality checks and fresh-value symmetry breaking
// (see valuationSearch.naive); naive callers leave the fields nil.
type searchOpts struct {
	naive bool
	// v and dm feed the IND pruner.
	v  *cc.Set
	dm *relation.Database
	// constrained is the inert-position analysis (inert.go).
	constrained map[string]map[int]bool
	// relevant is the linked-position analysis (relevant.go).
	relevant *relevantValues
}

// newValuationSearch compiles the slot plan of a search over the
// tableau's variables. Schema information is needed to determine each
// variable's admissible domain; unsatisfiable tableaux yield ok=false.
func newValuationSearch(u *Universe, t *cq.Tableau, schemas map[string]*relation.Schema, opts searchOpts) (*valuationSearch, bool) {
	doms, ok := t.AsCQ().VarDomains(schemas)
	if !ok {
		return nil, false
	}
	dict := relation.Shared()
	// Template-major variable order.
	slotOf := make(map[string]int32, len(t.Vars))
	var order []string
	addVar := func(name string) {
		if _, seen := slotOf[name]; !seen {
			slotOf[name] = int32(len(order))
			order = append(order, name)
		}
	}
	for _, tpl := range t.Templates {
		for _, a := range tpl.Args {
			if a.IsVar {
				addVar(a.Name)
			}
		}
	}
	for _, v := range t.Vars {
		addVar(v)
	}
	term := func(tm query.Term) slotTerm {
		if tm.IsVar {
			return slotTerm{slot: slotOf[tm.Name]}
		}
		return slotTerm{slot: -1, id: dict.Intern(tm.Val)}
	}
	terms := func(ts []query.Term) []slotTerm {
		out := make([]slotTerm, len(ts))
		for i, tm := range ts {
			out[i] = term(tm)
		}
		return out
	}

	s := &valuationSearch{
		t:         t,
		doms:      doms,
		order:     order,
		templates: make([][]slotTerm, len(t.Templates)),
		head:      terms(t.Head),
		diseqsAt:  make([][]int, len(order)),
		cands:     make([][]int32, len(order)),
		fixed:     make([]int, len(order)),
		fresh:     u.freshIDs,
		naive:     opts.naive,
		headAt:    -1,
	}
	for _, h := range s.head {
		s.headAt = max(s.headAt, int(h.slot))
	}
	for i, tpl := range t.Templates {
		s.templates[i] = terms(tpl.Args)
	}
	for _, dq := range t.Diseqs {
		// BuildTableau leaves no constant-only inequality, so every
		// condition has a highest slot.
		d := slotDiseq{l: term(dq.L), r: term(dq.R)}
		at := max(d.l.slot, d.r.slot)
		s.diseqsAt[at] = append(s.diseqsAt[at], len(s.diseqs))
		s.diseqs = append(s.diseqs, d)
	}
	s.compileCandidates(u, opts)
	s.pruner = newINDPruner(s, opts.v, opts.dm)
	return s, true
}

// compileCandidates fills every slot's candidate list, in the order the
// search tries them: the collapsed fresh value of an inert variable
// (inert.go); a finite domain in value order; otherwise the relevant
// constants (relevant.go) — all of Adom's constants without that
// analysis — followed by the whole fresh pool.
func (s *valuationSearch) compileCandidates(u *Universe, opts searchOpts) {
	var collapsed map[string]int32
	if opts.constrained != nil {
		collapsed = collapseTargets(collapsibleVars(s.t, opts.constrained, s.doms), u.freshIDs)
	}
	var occ map[string][]varPosition
	if opts.relevant != nil {
		occ = allVarOccurrences(s.t)
	}
	for i, name := range s.order {
		if id, ok := collapsed[name]; ok {
			s.cands[i], s.fixed[i] = []int32{id}, 1
			continue
		}
		if dom := s.doms[name]; dom.Kind == relation.Finite {
			s.cands[i] = appendIDs(nil, dom.Values)
			s.fixed[i] = len(s.cands[i])
			continue
		}
		base := u.Consts
		if occ != nil {
			base = opts.relevant.candidatesFor(occ[name])
		}
		c := appendIDs(make([]int32, 0, len(base)+len(u.freshIDs)), base)
		s.cands[i], s.fixed[i] = append(c, u.freshIDs...), len(base)
	}
}

// appendIDs appends the shared-dictionary ids of vals to dst.
func appendIDs(dst []int32, vals []relation.Value) []int32 {
	dict := relation.Shared()
	for _, v := range vals {
		dst = append(dst, dict.Intern(v))
	}
	return dst
}

// candidates returns the ids tried for slot i at symmetry level
// freshUsed: the slot's fixed candidates, then — fresh values being
// interchangeable — only the first unused fresh value beyond the
// freshUsed already in use. The naive mode tries the full fresh pool.
// The returned slice is shared and must not be modified.
func (s *valuationSearch) candidates(i, freshUsed int) []int32 {
	c, n := s.cands[i], s.fixed[i]
	limit := freshUsed + 1
	if s.naive || limit > len(c)-n {
		limit = len(c) - n
	}
	return c[:n+limit]
}

// diseqsHold reports whether every inequality condition holds under a
// complete valuation.
func (s *valuationSearch) diseqsHold(ids []int32) bool {
	for _, d := range s.diseqs {
		if !d.holds(ids) {
			return false
		}
	}
	return true
}

// valuation is one worker's slot-indexed valuation μ: ids[i] is the id
// assigned to slot i, or unbound. The scratch buffers serve the IND
// pruner, the answer-set probe and Apply, so a search node allocates
// nothing; like the valuation, they live only as long as the worker.
type valuation struct {
	s    *valuationSearch
	ids  []int32
	proj []int32   // scratch: projected ids of a key
	key  []byte    // scratch: fixed-width id-key
	rows [][]int32 // scratch: ground template rows
	// spare is a dead fragment handed back by release, refilled by the
	// next apply.
	spare *relation.Database
	// check is the worker's clone of the check's prepared constraint
	// delta checker, made on first use (see rcdpPrep.witness).
	check *cc.DeltaChecker
}

// newValuation returns an all-unbound valuation over the search's slots.
func (s *valuationSearch) newValuation() *valuation {
	mu := &valuation{s: s, ids: make([]int32, len(s.order)), rows: make([][]int32, len(s.templates))}
	for i := range mu.ids {
		mu.ids[i] = unbound
	}
	for i, tpl := range s.templates {
		mu.rows[i] = make([]int32, len(tpl))
	}
	return mu
}

// idKey returns the fixed-width id-key (relation.AppendIDKey) of the
// terms at cols, in the key scratch buffer, valid until the next call.
func (mu *valuation) idKey(terms []slotTerm, cols []int) []byte {
	mu.proj = mu.proj[:0]
	for _, c := range cols {
		mu.proj = append(mu.proj, terms[c].resolve(mu.ids))
	}
	mu.key = relation.AppendIDKey(mu.key[:0], mu.proj)
	return mu.key
}

// headKey returns the id-key of μ(u), like idKey.
func (mu *valuation) headKey() []byte {
	mu.proj = mu.proj[:0]
	for _, h := range mu.s.head {
		mu.proj = append(mu.proj, h.resolve(mu.ids))
	}
	mu.key = relation.AppendIDKey(mu.key[:0], mu.proj)
	return mu.key
}

// apply instantiates the templates under the complete valuation: the
// fragment μ(T) over schemas (see cq.Tableau.ApplyIDs), built in the
// released spare fragment when there is one.
func (mu *valuation) apply(schemas map[string]*relation.Schema) (*relation.Database, error) {
	for i, tpl := range mu.s.templates {
		for j, tm := range tpl {
			mu.rows[i][j] = tm.resolve(mu.ids)
		}
	}
	spare := mu.spare
	mu.spare = nil
	return mu.s.t.ApplyIDs(mu.rows, schemas, spare)
}

// release hands back a fragment from apply that nothing references
// any more, so the next apply refills its storage instead of
// allocating.
func (mu *valuation) release(db *relation.Database) { mu.spare = db }

// headAnswered reports whether μ(u) is in the search's answer set; the
// head slots must be bound.
func (mu *valuation) headAnswered() bool { return mu.s.answered[string(mu.headKey())] }

// headTuple returns μ(u), the instantiated output summary.
func (mu *valuation) headTuple() relation.Tuple {
	dict := relation.Shared()
	out := make(relation.Tuple, len(mu.s.head))
	for i, h := range mu.s.head {
		out[i] = dict.Value(h.resolve(mu.ids))
	}
	return out
}

// binding returns the valuation as a fresh query.Binding over the
// tableau's variable names: the API form of μ.
func (mu *valuation) binding() query.Binding {
	dict := relation.Shared()
	b := make(query.Binding, len(mu.ids))
	for i, name := range mu.s.order {
		b[name] = dict.Value(mu.ids[i])
	}
	return b
}

// leafFn is called on every complete valid valuation. On the parallel
// engine calls run concurrently on worker goroutines, so it may read
// only warmed/immutable shared state; mu is unwound after it returns,
// so anything kept must be derived (apply, headTuple and binding
// allocate fresh objects). A non-nil claim ends the search (sequential
// engine) or the branch (parallel engine, which resolves claims by key).
type leafFn func(mu *valuation) (claim any, err error)

// searchWorker runs the backtracking recursion over one valuation. The
// sequential engine runs one worker over the whole search; the parallel
// engine runs one per top-level branch (see branchTasks).
type searchWorker struct {
	s      *valuationSearch
	mu     *valuation
	budget *budgetCtl
	fn     leafFn
	// ctl and key arbitrate the parallel engine's race; ctl is nil on
	// the sequential engine, which keeps its claim in claim.
	ctl   *raceCtl
	key   int64
	claim any
}

// run enumerates the valid valuations sequentially and calls fn for
// each until fn claims one. It returns the claim (nil when none), the
// number of complete valuations visited, and ErrBudgetExceeded when the
// budget runs out before the space is exhausted.
func (s *valuationSearch) run(fn leafFn) (claim any, visited int, err error) {
	w := &searchWorker{s: s, mu: s.newValuation(), budget: newBudgetCtl(s.budget), fn: fn}
	err = w.rec(0, 0)
	if err == errStop {
		err = nil
	}
	return w.claim, w.budget.count(), err
}

// rec assigns slot i and recurses; freshUsed is the number of fresh
// values in use (the symmetry level).
func (w *searchWorker) rec(i, freshUsed int) error {
	if w.ctl != nil && w.ctl.cancelled(w.key) {
		return errAbandoned
	}
	s := w.s
	if err := s.gate.Poll(); err != nil {
		return err
	}
	if i == len(s.order) {
		return w.leaf()
	}
	for _, id := range s.candidates(i, freshUsed) {
		if err := w.step(i, id, freshUsed); err != nil {
			return err
		}
	}
	return nil
}

// step assigns id to slot i and, when the assignment is admitted and
// does not complete an already-answered head (the head cut), searches
// the slots after it; a fresh value first used here raises the symmetry
// level.
func (w *searchWorker) step(i int, id int32, freshUsed int) error {
	var err error
	if w.assign(i, id) && !w.cut(i) {
		if fresh := w.s.fresh; freshUsed < len(fresh) && id == fresh[freshUsed] {
			freshUsed++
		}
		err = w.rec(i+1, freshUsed)
	}
	w.mu.ids[i] = unbound
	return err
}

// leaf handles a complete valuation: charge the budget, check the
// inequalities (already enforced slot by slot unless naive) and hand it
// to fn.
func (w *searchWorker) leaf() error {
	if !w.budget.visit() {
		if w.ctl == nil {
			return ErrBudgetExceeded
		}
		w.ctl.claim(budgetKey(keyDisjunct(w.key)), nil)
		return errBudgetStop
	}
	if !w.s.diseqsHold(w.mu.ids) {
		return nil
	}
	claim, err := w.fn(w.mu)
	if err != nil || claim == nil {
		return err
	}
	if w.ctl != nil {
		w.ctl.claim(w.key, claim)
	} else {
		w.claim = claim
	}
	return errStop
}

// cut reports whether the head cut skips the subtree below slot i:
// slot i completes the head and μ(u) is already answered.
func (w *searchWorker) cut(i int) bool {
	s := w.s
	return s.answered != nil && i == s.headAt && w.mu.headAnswered()
}

// assign binds slot i to id and checks what became decidable: the
// inequalities whose highest slot is i, then the templates that became
// ground (IND pruner).
func (w *searchWorker) assign(i int, id int32) bool {
	w.mu.ids[i] = id
	s := w.s
	if s.naive {
		return true
	}
	for _, di := range s.diseqsAt[i] {
		if !s.diseqs[di].holds(w.mu.ids) {
			return false
		}
	}
	return s.pruner.admit(i, w.mu)
}
