package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/reductions"
	"repro/internal/sat"
)

// maxAllocsPerSatCheck bounds the allocations of one complete Workers=1
// ∀∃3SAT check. The search visits every candidate valuation (1,326 on
// the pinned instance), so any per-node or per-valuation allocation
// multiplies past the bound; setup, the Q(D) answers and the
// V-checks of the valuations that reach Apply stay well below it.
const maxAllocsPerSatCheck = 10000

// TestRCDPSearchAllocs guards the id-native valuation search against
// allocation creeping back into the search nodes.
func TestRCDPSearchAllocs(t *testing.T) {
	// Seed 17 of the golden family: a complete instance, so the search
	// is exhaustive (see testdata/rcdp_witness.golden).
	phi := goldenSatCNF(rand.New(rand.NewSource(17)))
	if !sat.ForallExists(phi, 5) {
		t.Fatal("pinned instance is not a true ∀∃ sentence")
	}
	inst, err := reductions.ForallExistsToRCDP(phi, 5)
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checker{Workers: 1}
	check := func() {
		r, err := ck.RCDPCtx(context.Background(), inst.Q, inst.D, inst.Dm, inst.V)
		if err != nil || r.Verdict != VerdictComplete {
			t.Fatalf("verdict %v, err %v", r, err)
		}
	}
	check() // warm the compiled-query and dictionary caches
	got := testing.AllocsPerRun(3, check)
	t.Logf("%.0f allocs per check", got)
	if got > maxAllocsPerSatCheck {
		t.Errorf("%.0f allocs per check, want ≤ %d", got, maxAllocsPerSatCheck)
	}
}
