package cc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cq/cqtest"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// naiveSatisfied judges (db, dm) ⊨ V without the engine: each
// constraint's query is evaluated by the naive evaluator of package
// cqtest and compared with a plain projection of Dm.
func naiveSatisfied(t *testing.T, set *Set, db, dm *relation.Database) bool {
	t.Helper()
	for _, c := range set.Constraints {
		var lhs []relation.Tuple
		if q, ok := qlang.AsCQ(c.Q); ok {
			lhs = cqtest.Eval(q, db)
		} else if u, ok := qlang.AsUCQ(c.Q); ok {
			lhs = cqtest.EvalUCQ(u, db)
		} else {
			t.Fatalf("%s: no naive evaluation for %v", c.Name, c.Q.Lang())
		}
		rhs := make(map[string]bool)
		if !c.P.IsEmptySet() {
			for _, tu := range dm.Instance(c.P.Rel).Tuples() {
				rhs[tu.Project(c.P.Cols).Key()] = true
			}
		}
		for _, tu := range lhs {
			if !rhs[tu.Key()] {
				return false
			}
		}
	}
	return true
}

// randomCRMCase draws a small random CRM-shaped instance: a base D, a
// delta over the same schemas, and a master DCust.
func randomCRMCase(rng *rand.Rand) (d, delta, dm *relation.Database) {
	d, dm = crmSchemas()
	delta, _ = crmSchemas()
	ids := []string{"c1", "c2", "c3"}
	ccs := []string{"01", "44"}
	id := func() string { return ids[rng.Intn(len(ids))] }
	for i, n := 0, rng.Intn(4); i < n; i++ {
		d.MustAdd("Cust", id(), "n", ccs[rng.Intn(2)], "a", "p")
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		d.MustAdd("Supt", "e1", "d1", id())
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		delta.MustAdd("Cust", id(), "n", ccs[rng.Intn(2)], "a", "p")
	}
	if rng.Intn(2) == 0 {
		delta.MustAdd("Supt", "e2", "d1", id())
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		dm.MustAdd("DCust", id(), "n", "a", "p")
	}
	return d, delta, dm
}

// TestSatisfiedInternedMatchesLegacy checks Satisfied over a
// materialized D ∪ Δ against the naive verdict, and the differential
// SatisfiedDeltaGate against it whenever (D, Dm) ⊨ V, the differential
// check's precondition.
func TestSatisfiedInternedMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	set := NewSet(phi0(), AtMostK("k1", "Supt", 3, []int{2}, 0, 2))
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for trial := 0; trial < 250; trial++ {
		d, delta, dm := randomCRMCase(rng)
		union := d.Union(delta)
		want := naiveSatisfied(t, set, union, dm)
		full, err := set.Satisfied(union, dm)
		if err != nil {
			t.Fatalf("trial %d: Satisfied: %v", trial, err)
		}
		if full != want {
			t.Fatalf("trial %d: Satisfied = %v, naive %v\nD ∪ delta:\n%v\nDm:\n%v", trial, full, want, union, dm)
		}
		if !naiveSatisfied(t, set, d, dm) {
			continue
		}
		checked++
		inc, err := set.SatisfiedDeltaGate(d, delta, dm, query.NewGate(ctx, 1<<40, 1<<40))
		if err != nil {
			t.Fatalf("trial %d: SatisfiedDeltaGate: %v", trial, err)
		}
		if inc != want {
			t.Fatalf("trial %d: SatisfiedDeltaGate = %v, naive %v\nD:\n%v\ndelta:\n%v\nDm:\n%v", trial, inc, want, d, delta, dm)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d trials met the differential check's precondition", checked)
	}
}
