package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/reductions"
)

// Before EvalGate's head cut, Q(D) on the golden ∀∃3SAT family (the
// seeds 1–30 of goldenCases) charged 2,323,124 join rows in total
// (76,253–77,821 per instance): the join walked every assignment of
// the ten variables through the whole clause circuit. The cut
// enumerates each answer's subtree only to its first match and skips
// settled ones, 985,775 rows now.
//
// The valuation search has the same cut against Q(D)'s answer set: a
// branch stops once the head slots x1..x5 are bound to an answered
// head. Every complete instance of the family answers all 32 heads, so
// its search reaches no leaf, and an incomplete one reaches only its
// witness. The Workers=1 searches visited 10,434 valuations in total
// before that cut and 26 with it (one per incomplete seed).
const (
	qdRowsBeforeCut   = 2323124
	valuationsOfSeeds = 26
)

// TestForallExistsQDRows bounds the governed join rows of Q(D) on the
// golden ∀∃3SAT family at half the count before EvalGate's head cut,
// and pins the Workers=1 valuation count of the search's head cut.
func TestForallExistsQDRows(t *testing.T) {
	var rows int64
	valuations := 0
	for seed := int64(1); seed <= 30; seed++ {
		inst, err := reductions.ForallExistsToRCDP(goldenSatCNF(rand.New(rand.NewSource(seed))), 5)
		if err != nil {
			t.Fatal(err)
		}
		g := query.NewGate(context.Background(), 0, 0)
		if _, err := inst.Q.EvalGate(inst.D, g); err != nil {
			t.Fatal(err)
		}
		rows += g.Rows()
		r, err := (&Checker{Workers: 1}).RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V)
		if err != nil {
			t.Fatal(err)
		}
		valuations += r.Valuations
	}
	t.Logf("Q(D) charged %d join rows over the family (%d before the head cut)", rows, qdRowsBeforeCut)
	if rows > qdRowsBeforeCut/2 {
		t.Errorf("Q(D) charged %d join rows, want ≤ %d (half the count before the head cut)", rows, qdRowsBeforeCut/2)
	}
	if valuations != valuationsOfSeeds {
		t.Errorf("Workers=1 searches visited %d valuations, want %d", valuations, valuationsOfSeeds)
	}
}
