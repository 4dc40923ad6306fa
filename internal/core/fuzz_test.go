package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// FuzzRCDPOracle holds the checker to the brute-force decider of
// oracle_test.go on one micro instance per input: seed draws D and an
// insert batch, qi picks a query from microQueries and ci a constraint
// set from microConstraintSets. On a partially closed D it checks that
//
//   - RCDPCtx at Workers 1 and 2 agrees with bruteRCDP, and every
//     witness passes naive certification;
//   - an unbudgeted DegreeCtx is exact, with degree 1 iff Complete;
//   - RecheckDeltaCtx after the insert batch equals a cold RCDPCtx over
//     rebuilt databases and a fresh constraint set.
func FuzzRCDPOracle(f *testing.F) {
	for i := 0; i < 14; i++ {
		f.Add(int64(i), uint8(i), uint8(i/2))
	}
	f.Fuzz(func(t *testing.T, seed int64, qi, ci uint8) {
		queries, sets := microQueries(), microConstraintSets()
		q := queries[int(qi)%len(queries)]
		cs := sets[int(ci)%len(sets)]
		rng := rand.New(rand.NewSource(seed))
		d := randomMicroDB(rng)
		if !naiveSatisfied(t, cs.v, d, cs.dm) {
			return // not partially closed: RCDP's precondition fails
		}
		ctx := context.Background()
		atoms, vars := microBounds(t, q)
		incomplete := bruteRCDP(t, q, d, cs.dm, cs.v, atoms, vars)
		var seq *RCDPResult
		for _, w := range []int{1, 2} {
			res, err := (&Checker{Workers: w}).RCDPCtx(ctx, q, d, cs.dm, cs.v)
			if err != nil {
				t.Fatalf("workers=%d %s/%s: %v", w, cs.name, q, err)
			}
			if res.Complete == incomplete {
				t.Fatalf("workers=%d %s/%s: RCDPCtx complete=%v, brute force incomplete=%v\nD:\n%v",
					w, cs.name, q, res.Complete, incomplete, d)
			}
			if !res.Complete {
				certifyRCDPWitness(t, q, d, cs.dm, cs.v, res.Extension, res.NewTuple)
			}
			if w == 1 {
				seq = res
			}
		}

		ck := &Checker{Workers: 1}
		dg, err := ck.DegreeCtx(ctx, q, d, cs.dm, cs.v)
		if err != nil {
			t.Fatalf("%s/%s: degree: %v", cs.name, q, err)
		}
		if !dg.Exact || (dg.Degree == 1) != seq.Complete || dg.Verdict != seq.Verdict {
			t.Fatalf("%s/%s: degree %v (exact=%v, verdict %v) against verdict %v",
				cs.name, q, dg.Degree, dg.Exact, dg.Verdict, seq.Verdict)
		}

		dl := randomMicroInserts(rng)
		got, _, gerr := ck.RecheckDeltaCtx(ctx, q, d, cs.dm, cs.v, seq, dl)
		fresh := microConstraintSets()[int(ci)%len(sets)].v
		want, werr := ck.RCDPCtx(ctx, q, rebuildDB(t, d), rebuildDB(t, cs.dm), fresh)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s/%s after %+v: recheck err=%v, cold err=%v", cs.name, q, dl, gerr, werr)
		}
		if gerr == nil && (!sameRecheck(got, want) || got.Valuations != want.Valuations) {
			t.Fatalf("%s/%s after %+v: recheck %+v, cold %+v", cs.name, q, dl, got, want)
		}
	})
}

// randomMicroInserts draws one insert batch against the micro setting:
// R and F rows for D, or M rows for the master data, with values from
// the instance vocabulary plus one new value.
func randomMicroInserts(rng *rand.Rand) *Delta {
	vals := []string{"a", "b", "c"}
	pick := func() relation.Value { return relation.Value(vals[rng.Intn(len(vals))]) }
	dl := &Delta{Master: rng.Intn(2) == 0, Inserts: map[string][]relation.Tuple{}}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		switch {
		case dl.Master:
			dl.Inserts["M"] = append(dl.Inserts["M"], relation.Tuple{pick()})
		case rng.Intn(3) == 0:
			dl.Inserts["F"] = append(dl.Inserts["F"], relation.Tuple{relation.Value([]string{"0", "1"}[rng.Intn(2)])})
		default:
			dl.Inserts["R"] = append(dl.Inserts["R"], relation.Tuple{pick(), pick()})
		}
	}
	return dl
}
