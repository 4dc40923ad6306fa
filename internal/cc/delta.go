package cc

import (
	"repro/internal/cq"
	"repro/internal/query"
	"repro/internal/relation"
)

// DeltaChecker decides (D ∪ Δ, Dm) ⊨ V for many small Δ against one
// fixed (V, D, Dm), assuming (D, Dm) ⊨ V — the per-valuation test of
// Proposition 3.3 in the RCDP search. Everything that depends only on
// (V, D, Dm) is prepared once: each monotone constraint's memoized
// p(Dm) id-keys and, per constraint tableau, a cq.DeltaJoin bound to
// D. A check then only binds Δ and runs the differential joins.
//
// A DeltaChecker is single-goroutine state; Clone gives each search
// worker its own. D and Dm must not be mutated while it is in use.
type DeltaChecker struct {
	d, dm  *relation.Database
	checks []deltaCheck

	// Per-check state of the id-head callback (onHead).
	rhsIDs   map[string]bool
	violated bool
	kb       []byte
	onHead   func(head []int32) bool
}

// deltaCheck is one constraint's prepared differential check.
type deltaCheck struct {
	c *Constraint
	// skip marks a reverse constraint over a monotone query: extensions
	// only add q-answers, so p(Dm) ⊆ q(D) carries over.
	skip bool
	// union marks a non-monotone constraint, re-evaluated over D ∪ Δ.
	union bool
	pc    *projCache
	// tableaux are the constraint query's tableaux; joins[i] is the
	// prepared join of tableaux[i], nil when only the Binding path can
	// serve it (legacy storage on the master or database side).
	tableaux []*cq.Tableau
	joins    []*cq.DeltaJoin
}

// PrepareDelta prepares the differential constraint check of the set
// against the fixed base (d, dm); see DeltaChecker. A nil set checks
// nothing.
func (s *Set) PrepareDelta(d, dm *relation.Database) *DeltaChecker {
	dc := &DeltaChecker{d: d, dm: dm}
	dc.onHead = dc.checkHead
	if s == nil {
		return dc
	}
	dc.checks = make([]deltaCheck, len(s.Constraints))
	for i, c := range s.Constraints {
		ch := &dc.checks[i]
		ch.c = c
		monotone := c.Q.Lang().Monotone()
		switch {
		case c.Reverse && monotone:
			ch.skip = true
			continue
		case c.Reverse || !monotone:
			ch.union = true
			continue
		}
		ch.pc = c.masterCache(dm)
		ch.tableaux = c.Q.Tableaux()
		ch.joins = make([]*cq.DeltaJoin, len(ch.tableaux))
		if ch.pc.rhsIDs == nil {
			continue
		}
		for ti, t := range ch.tableaux {
			if dj, ok := t.PrepareDelta(d); ok {
				ch.joins[ti] = dj
			}
		}
	}
	return dc
}

// Clone returns an independent checker sharing the read-only prepared
// state.
func (dc *DeltaChecker) Clone() *DeltaChecker {
	c := &DeltaChecker{d: dc.d, dm: dc.dm, checks: make([]deltaCheck, len(dc.checks))}
	c.onHead = c.checkHead
	for i, ch := range dc.checks {
		c.checks[i] = ch
		if ch.joins == nil {
			continue
		}
		c.checks[i].joins = make([]*cq.DeltaJoin, len(ch.joins))
		for ti, dj := range ch.joins {
			if dj != nil {
				c.checks[i].joins[ti] = dj.Clone()
			}
		}
	}
	return c
}

// checkHead is the id-head callback: a head outside p(Dm) is a
// violation and stops the enumeration.
func (dc *DeltaChecker) checkHead(head []int32) bool {
	dc.kb = relation.AppendIDKey(dc.kb[:0], head)
	if !dc.rhsIDs[string(dc.kb)] {
		dc.violated = true
		return false
	}
	return true
}

// Satisfied reports whether (D ∪ delta, Dm) ⊨ V, under gate governance
// (a nil gate is free). Constraints are checked in V's order and the
// first violation or gate error ends the check; each tableau's
// differential join charges g exactly as EvalFuncDeltaGate does.
func (dc *DeltaChecker) Satisfied(delta *relation.Database, g *query.Gate) (bool, error) {
	for i := range dc.checks {
		ok, err := dc.checks[i].satisfied(dc, delta, g)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// satisfied runs one constraint's prepared check.
func (ch *deltaCheck) satisfied(dc *DeltaChecker, delta *relation.Database, g *query.Gate) (bool, error) {
	switch {
	case ch.skip:
		return true, nil
	case ch.union:
		return ch.c.satisfiedUnion(dc.d, delta, dc.dm, g)
	}
	for ti, t := range ch.tableaux {
		if dj := ch.joins[ti]; dj != nil {
			// Integer fast path: heads arrive as interned ids and
			// membership is one fixed-width key probe — no Binding,
			// HeadTuple or string Key per differential match.
			dc.rhsIDs, dc.violated = ch.pc.rhsIDs, false
			handled, err := dj.Run(delta, g, dc.onHead)
			dc.rhsIDs = nil
			if err != nil {
				return false, err
			}
			if handled {
				if dc.violated {
					return false, nil
				}
				continue
			}
		}
		violated := false
		err := t.EvalFuncDeltaGate(dc.d, delta, g, func(b query.Binding) bool {
			h, ok := t.HeadTuple(b)
			if !ok {
				return true
			}
			if !ch.pc.rhs[h.Key()] {
				violated = true
				return false
			}
			return true
		})
		if err != nil {
			return false, err
		}
		if violated {
			return false, nil
		}
	}
	return true, nil
}
