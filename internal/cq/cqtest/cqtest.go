// Package cqtest is a naive reference evaluator for conjunctive
// queries, for tests only. It reads a *cq.CQ straight from its atoms
// and conditions and matches the atoms in written order by nested loops
// over Instance.Tuples with a query.Binding. It shares nothing with the
// engine it checks: no tableau, no planner, no index and no dictionary
// ids. Slow by design; keep its inputs small.
package cqtest

import (
	"sort"

	"repro/internal/cq"
	"repro/internal/query"
	"repro/internal/relation"
)

// Eval returns the distinct answers of q over d, in Tuple.Less order.
// A Boolean query answers one empty tuple when it holds.
func Eval(q *cq.CQ, d *relation.Database) []relation.Tuple {
	return answers([]*cq.CQ{q}, d)
}

// EvalUCQ returns the distinct answers of the union of u's disjuncts
// over d, in Tuple.Less order.
func EvalUCQ(u *cq.UCQ, d *relation.Database) []relation.Tuple {
	return answers(u.Disjuncts, d)
}

func answers(qs []*cq.CQ, d *relation.Database) []relation.Tuple {
	seen := make(map[string]relation.Tuple)
	for _, q := range qs {
		for _, b := range Bindings(q, d) {
			if h, ok := Head(q, b); ok {
				seen[h.Key()] = h
			}
		}
	}
	out := make([]relation.Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Bindings returns one binding of all of q's variables per match of
// its atoms over d that satisfies its conditions. Distinct matches
// yield distinct bindings, so the result is a set.
func Bindings(q *cq.CQ, d *relation.Database) []query.Binding {
	return match(q, func(int) []*relation.Database { return []*relation.Database{d} })
}

// DeltaBindings returns the matches of q over d ∪ delta that use a
// delta tuple, as the multiset a differential evaluation produces: for
// each atom position j, every match in which atom j reads delta and
// every other atom reads d and then delta, counted separately. A
// tuple present in both d and delta is therefore counted from each.
func DeltaBindings(q *cq.CQ, d, delta *relation.Database) []query.Binding {
	var out []query.Binding
	for j := range q.Atoms {
		out = append(out, match(q, func(i int) []*relation.Database {
			if i == j {
				return []*relation.Database{delta}
			}
			return []*relation.Database{d, delta}
		})...)
	}
	return out
}

// Head returns the answer tuple of q under a binding from Bindings.
func Head(q *cq.CQ, b query.Binding) (relation.Tuple, bool) {
	out := make(relation.Tuple, len(q.Head))
	for i, h := range q.Head {
		v, ok := b.Resolve(h)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// match enumerates the atoms of q in written order; atom i reads the
// tuples of its relation in each database srcs(i) names, in turn.
func match(q *cq.CQ, srcs func(i int) []*relation.Database) []query.Binding {
	var out []query.Binding
	b := query.Binding{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Atoms) {
			if full, ok := closeConds(q, b); ok {
				out = append(out, full)
			}
			return
		}
		a := q.Atoms[i]
		for _, db := range srcs(i) {
			in := db.Instance(a.Rel)
			if in == nil {
				continue
			}
			for _, t := range in.Tuples() {
				newly := b.Match(a, t)
				if newly == nil {
					continue
				}
				rec(i + 1)
				for _, v := range newly {
					delete(b, v)
				}
			}
		}
	}
	rec(0)
	return out
}

// closeConds extends a binding of the atoms' variables along q's
// equalities until nothing changes, then checks every condition. It
// returns the extended copy and whether all conditions hold; a
// condition left with an unbound side (an unsafe query) fails.
func closeConds(q *cq.CQ, b query.Binding) (query.Binding, bool) {
	full := b.Clone()
	for changed := true; changed; {
		changed = false
		for _, c := range q.Conds {
			if c.Neg {
				continue
			}
			l, lok := full.Resolve(c.L)
			r, rok := full.Resolve(c.R)
			switch {
			case lok && !rok:
				full[c.R.Name], changed = l, true
			case rok && !lok:
				full[c.L.Name], changed = r, true
			}
		}
	}
	for _, c := range q.Conds {
		if holds, known := c.Holds(full); !known || !holds {
			return nil, false
		}
	}
	return full, true
}
