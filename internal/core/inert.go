package core

import (
	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/relation"
)

// Inert-position analysis. A (relation, column) position is inert with
// respect to a constraint set V when no CC query can distinguish values
// at that position: every atom over the relation in every constraint
// tableau carries, at that column, a variable that occurs exactly once
// in the whole tableau and appears neither in the tableau's head nor in
// its inequality conditions. The value a candidate extension places at
// an inert position can then be swapped for a dedicated fresh value
// without changing (a) whether any CC match exists or (b) any CC match
// head — so a search variable all of whose occurrences are inert (and
// which is itself outside the query tableau's head and inequalities)
// can be pinned to one fresh value. This collapse is exact: it shrinks
// the Adom valuation space of Proposition 3.3 without changing the
// existence of counterexamples.

// inertPositions computes the map rel → column → non-inert (true means
// the column is *constrained*; absent means inert).
func inertPositions(v *cc.Set) map[string]map[int]bool {
	constrained := make(map[string]map[int]bool)
	mark := func(rel string, col int) {
		m := constrained[rel]
		if m == nil {
			m = make(map[int]bool)
			constrained[rel] = m
		}
		m[col] = true
	}
	if v == nil {
		return constrained
	}
	for _, c := range v.Constraints {
		for _, t := range c.Q.Tableaux() {
			occ := make(map[string]int)
			special := make(map[string]bool) // head or diseq variables
			for _, tpl := range t.Templates {
				for _, a := range tpl.Args {
					if a.IsVar {
						occ[a.Name]++
					}
				}
			}
			for _, h := range t.Head {
				if h.IsVar {
					special[h.Name] = true
				}
			}
			for _, d := range t.Diseqs {
				if d.L.IsVar {
					special[d.L.Name] = true
				}
				if d.R.IsVar {
					special[d.R.Name] = true
				}
			}
			for _, tpl := range t.Templates {
				for col, a := range tpl.Args {
					if !a.IsVar || occ[a.Name] > 1 || special[a.Name] {
						mark(tpl.Rel, col)
					}
				}
			}
		}
	}
	return constrained
}

// collapsibleVars returns the query-tableau variables that can be
// pinned to dedicated fresh values: variables outside the tableau's
// head and inequality conditions whose every template occurrence is at
// an inert position of V. Only variables with an infinite admissible
// domain are collapsed (finite-domain variables are already cheap and
// their domains may exclude fresh values).
func collapsibleVars(t *cq.Tableau, constrained map[string]map[int]bool, doms map[string]relation.Domain) []string {
	special := make(map[string]bool)
	for _, h := range t.Head {
		if h.IsVar {
			special[h.Name] = true
		}
	}
	for _, d := range t.Diseqs {
		if d.L.IsVar {
			special[d.L.Name] = true
		}
		if d.R.IsVar {
			special[d.R.Name] = true
		}
	}
	blocked := make(map[string]bool)
	seen := make(map[string]bool)
	var order []string
	for _, tpl := range t.Templates {
		for col, a := range tpl.Args {
			if !a.IsVar {
				continue
			}
			if !seen[a.Name] {
				seen[a.Name] = true
				order = append(order, a.Name)
			}
			if special[a.Name] || constrained[tpl.Rel][col] {
				blocked[a.Name] = true
			}
		}
	}
	var out []string
	for _, v := range order {
		if !blocked[v] && doms[v].Kind == relation.Infinite {
			out = append(out, v)
		}
	}
	return out
}

// collapseTargets pins the collapsible variables to dedicated fresh
// values taken from the end of the universe's fresh pool (the
// symmetry-breaking prefix for the remaining variables grows from the
// front, so the two never collide as long as the pool holds one fresh
// value per variable). It returns variable → fresh id; variables left
// over when the pool runs out keep their full search.
func collapseTargets(vars []string, fresh []int32) map[string]int32 {
	if len(vars) == 0 {
		return nil
	}
	out := make(map[string]int32, len(vars))
	for k, name := range vars {
		idx := len(fresh) - 1 - k
		if idx < 0 {
			break
		}
		out[name] = fresh[idx]
	}
	return out
}
