package cc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// TestDeltaCheckerReuse drives one prepared checker, and a clone of
// it, over many Δ refilled into one recycled fragment — the RCDP
// search's usage — and holds every check to a full recheck over D ∪ Δ
// and to the one-shot SatisfiedDeltaGate's verdict and gate charges.
func TestDeltaCheckerReuse(t *testing.T) {
	ctx := context.Background()
	set := NewSet(phi0(), AtMostK("k1", "Supt", 3, []int{2}, 0, 2))
	rng := rand.New(rand.NewSource(29))
	for base := 0; base < 40; base++ {
		d, _, dm := randomCRMCase(rng)
		if ok, err := set.Satisfied(d, dm); err != nil || !ok {
			continue // the delta check presumes (D, Dm) ⊨ V
		}
		checkers := []*DeltaChecker{set.PrepareDelta(d, dm)}
		checkers = append(checkers, checkers[0].Clone())
		frag, _ := crmSchemas()
		for trial := 0; trial < 10; trial++ {
			_, delta, _ := randomCRMCase(rng)
			frag.Reset()
			for _, rel := range delta.Relations() {
				for _, tup := range delta.Instance(rel).Tuples() {
					if err := frag.Add(rel, tup); err != nil {
						t.Fatal(err)
					}
				}
			}
			full, err := set.Satisfied(d.Union(frag), dm)
			if err != nil {
				t.Fatal(err)
			}
			g := query.NewGate(ctx, 1<<40, 1<<40)
			once, err := set.SatisfiedDeltaGate(d, frag, dm, g)
			if err != nil {
				t.Fatal(err)
			}
			if once != full {
				t.Fatalf("one-shot delta check %v, full recheck %v\nD:\n%v\ndelta:\n%v", once, full, d, frag)
			}
			for i, dc := range checkers {
				pg := query.NewGate(ctx, 1<<40, 1<<40)
				got, err := dc.Satisfied(frag, pg)
				if err != nil {
					t.Fatal(err)
				}
				if got != full || pg.Rows() != g.Rows() {
					t.Fatalf("checker %d: verdict %v rows %d, want %v rows %d\nD:\n%v\ndelta:\n%v",
						i, got, pg.Rows(), full, g.Rows(), d, frag)
				}
			}
		}
	}
}

// TestPreparedDeltaCheckAllocs pins the per-valuation cost of the RCDP
// search's constraint check: refilling a recycled Δ-fragment and
// running the prepared checker on it allocates nothing, governed or
// not.
func TestPreparedDeltaCheckAllocs(t *testing.T) {
	d, dm := crmSchemas()
	dm.MustAdd("DCust", "c1", "Ann", "908", "5550001")
	dm.MustAdd("DCust", "c2", "Eve", "973", "5550002")
	d.MustAdd("Cust", "c1", "Ann", "01", "908", "5550001")
	d.MustAdd("Cust", "c2", "Eve", "01", "973", "5550002")
	d.MustAdd("Supt", "e0", "sales", "c1")
	d.MustAdd("Supt", "e1", "sales", "c2")
	set := NewSet(phi0(), AtMostK("k1", "Supt", 3, []int{0}, 2, 1))
	dc := set.PrepareDelta(d, dm).Clone()

	dict := relation.Shared()
	ids := func(vals ...string) []int32 {
		out := make([]int32, len(vals))
		for i, v := range vals {
			out[i] = dict.Intern(relation.Value(v))
		}
		return out
	}
	cust, supt := ids("c2", "Eve", "01", "973", "5550002"), ids("e2", "sales", "c2")
	frag, _ := crmSchemas()
	gate := query.NewGate(context.Background(), 0, 0)
	for _, g := range []*query.Gate{nil, gate} {
		check := func() {
			frag.Reset()
			if err := frag.Instance("Cust").AddIDs(cust); err != nil {
				t.Fatal(err)
			}
			if err := frag.Instance("Supt").AddIDs(supt); err != nil {
				t.Fatal(err)
			}
			if ok, err := dc.Satisfied(frag, g); err != nil || !ok {
				t.Fatalf("check = %v, %v; want satisfied", ok, err)
			}
		}
		check() // size the fragment's buffers
		if allocs := testing.AllocsPerRun(50, check); allocs != 0 {
			t.Errorf("gate=%v: prepared delta check allocates %.1f times, want 0", g != nil, allocs)
		}
	}
}
