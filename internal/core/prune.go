package core

import (
	"repro/internal/cc"
	"repro/internal/relation"
)

// indPruner prunes partial valuations template-by-template: as soon as
// a tuple template of the tableau becomes fully ground, every IND of V
// over its relation is checked on that single tuple (INDs are per-tuple
// conditions, so a violated template can never be repaired by later
// assignments). Non-IND constraints are ignored here — they are checked
// exactly on complete valuations by the caller — so pruning is always
// sound and, for all-IND V, also complete per-template.
//
// Slots are assigned in order, so a template becomes ground exactly
// when its highest slot is assigned: the pruner precomputes that slot
// per template and keeps no backtracking state. Membership probes use
// fixed-width id-keys in the valuation's scratch buffer, so a check
// allocates nothing. Everything here is read-only after newINDPruner
// and is shared by the workers of a parallel search.
type indPruner struct {
	// templates are the search's compiled templates.
	templates [][]slotTerm
	// checks[ti] are the INDs over template ti's relation.
	checks [][]indCheck
	// groundAt[i] lists the templates with checks whose highest slot is
	// slot i.
	groundAt [][]int
}

type indCheck struct {
	cols []int
	// allowed is p(Dm) as id-keys (relation.AppendIDKey); empty when
	// the right-hand side is ∅ or names no master tuple.
	allowed map[string]bool
}

// newINDPruner builds a pruner for the search; it returns nil when V
// contains no INDs over the tableau's relations (pruning would be a
// no-op).
func newINDPruner(s *valuationSearch, v *cc.Set, dm *relation.Database) *indPruner {
	if v == nil {
		return nil
	}
	byRel := make(map[string][]indCheck)
	for _, c := range v.Constraints {
		shape, ok := c.IND()
		if !ok {
			continue
		}
		byRel[shape.Rel] = append(byRel[shape.Rel], indCheck{cols: shape.Cols, allowed: c.MasterIDKeys(dm)})
	}
	p := &indPruner{
		templates: s.templates,
		checks:    make([][]indCheck, len(s.templates)),
		groundAt:  make([][]int, len(s.order)),
	}
	relevant := false
	for ti, tpl := range s.t.Templates {
		chks := byRel[tpl.Rel]
		if len(chks) == 0 {
			continue
		}
		relevant = true
		p.checks[ti] = chks
		last := int32(-1)
		for _, a := range s.templates[ti] {
			last = max(last, a.slot)
		}
		if last >= 0 {
			p.groundAt[last] = append(p.groundAt[last], ti)
		}
	}
	if !relevant {
		return nil
	}
	return p
}

// admit checks every template that became ground with slot i against
// the INDs of its relation. A nil pruner admits everything.
func (p *indPruner) admit(i int, mu *valuation) bool {
	if p == nil {
		return true
	}
	for _, ti := range p.groundAt[i] {
		tpl := p.templates[ti]
		for _, chk := range p.checks[ti] {
			if !chk.allowed[string(mu.idKey(tpl, chk.cols))] {
				return false
			}
		}
	}
	return true
}
