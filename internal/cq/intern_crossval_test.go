package cq

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// Cross-validation of the interned columnar join engine against the
// legacy string-map representation: answer sequences (order included —
// ascending dictionary rank must coincide with Tuple.Less order), the
// binding sequences of differential evaluation, and the gate's work
// counters must be bit-identical across the two storage modes, with
// the indexed engine both on and off.

// restoreStorageToggles re-enables interning and the indexed engine
// after a test.
func restoreStorageToggles(t *testing.T) {
	prevIntern := relation.SetInterning(true)
	prevIndex := SetIndexJoin(true)
	t.Cleanup(func() {
		relation.SetInterning(prevIntern)
		SetIndexJoin(prevIndex)
	})
}

// rebuildUnderCurrentMode reconstructs a database in fresh storage
// under the current SetInterning mode (representation is fixed at
// construction time).
func rebuildUnderCurrentMode(t *testing.T, db *relation.Database) *relation.Database {
	t.Helper()
	names := db.Relations()
	ss := make([]*relation.Schema, 0, len(names))
	for _, name := range names {
		ss = append(ss, db.Schema(name))
	}
	nd := relation.NewDatabase(ss...)
	for _, name := range names {
		for _, tup := range db.Instance(name).Tuples() {
			if err := nd.Add(name, tup); err != nil {
				t.Fatalf("rebuild %s: %v", name, err)
			}
		}
	}
	return nd
}

// bindingKey serializes a full binding over the tableau's variables.
func bindingKey(tb *Tableau, b query.Binding) string {
	var sb strings.Builder
	for _, name := range tb.Vars {
		v, ok := b[name]
		if !ok {
			sb.WriteString("|?")
			continue
		}
		sb.WriteString("|")
		sb.WriteString(string(v))
	}
	return sb.String()
}

// TestEvalInternedMatchesLegacy draws its cases from two generators:
// randomDeltaCase, and randomCutCase, whose early-bound, Boolean and
// constant heads with many matches per answer make EvalGate's head cut
// fire, so the exact counter comparison covers both engines' cuts.
func TestEvalInternedMatchesLegacy(t *testing.T) {
	restoreStorageToggles(t)
	ctx := context.Background()
	generators := []struct {
		name string
		seed int64
		draw func(*rand.Rand) (*CQ, *relation.Database, *relation.Database)
	}{{"delta", 97, randomDeltaCase}, {"cut", 98, randomCutCase}}
	for _, indexed := range []bool{true, false} {
		SetIndexJoin(indexed)
		for _, gen := range generators {
			cuts := 0
			rng := rand.New(rand.NewSource(gen.seed))
			for trial := 0; trial < 250; trial++ {
				relation.SetInterning(true)
				q, d, delta := gen.draw(rng)
				tb, err := BuildTableau(q)
				if err != nil {
					continue
				}
				if tb.headCutDepth(tb.planOrder(d)) >= 0 {
					cuts++
				}

				run := func() ([]relation.Tuple, []string, int64, int64, int64, int64) {
					g := query.NewGate(ctx, 1<<40, 1<<40)
					ans, err := q.EvalGate(d, g)
					if err != nil {
						t.Fatalf("indexed=%v %s trial %d: EvalGate: %v", indexed, gen.name, trial, err)
					}
					evalRows, evalTuples := g.Rows(), g.Tuples()
					dg := query.NewGate(ctx, 1<<40, 1<<40)
					var seq []string
					if err := tb.EvalFuncDeltaGate(d, delta, dg, func(b query.Binding) bool {
						seq = append(seq, bindingKey(tb, b))
						return true
					}); err != nil {
						t.Fatalf("indexed=%v %s trial %d: EvalFuncDeltaGate: %v", indexed, gen.name, trial, err)
					}
					return ans, seq, evalRows, evalTuples, dg.Rows(), dg.Tuples()
				}

				ians, iseq, irows, ituples, idrows, idtuples := run()
				relation.SetInterning(false)
				d, delta = rebuildUnderCurrentMode(t, d), rebuildUnderCurrentMode(t, delta)
				lans, lseq, lrows, ltuples, ldrows, ldtuples := run()

				if len(ians) != len(lans) {
					t.Fatalf("indexed=%v %s trial %d (%s): answer counts diverge: interned %d legacy %d\nD:\n%v",
						indexed, gen.name, trial, q, len(ians), len(lans), d)
				}
				for i := range ians {
					if !ians[i].Equal(lans[i]) {
						t.Fatalf("indexed=%v %s trial %d (%s): answer %d diverges: interned %v legacy %v",
							indexed, gen.name, trial, q, i, ians[i], lans[i])
					}
				}
				if irows != lrows || ituples != ltuples {
					t.Fatalf("indexed=%v %s trial %d (%s): eval gate counters diverge: interned rows=%d tuples=%d legacy rows=%d tuples=%d",
						indexed, gen.name, trial, q, irows, ituples, lrows, ltuples)
				}
				if len(iseq) != len(lseq) {
					t.Fatalf("indexed=%v %s trial %d (%s): delta binding counts diverge: interned %d legacy %d",
						indexed, gen.name, trial, q, len(iseq), len(lseq))
				}
				for i := range iseq {
					if iseq[i] != lseq[i] {
						t.Fatalf("indexed=%v %s trial %d (%s): delta binding %d diverges: interned %q legacy %q",
							indexed, gen.name, trial, q, i, iseq[i], lseq[i])
					}
				}
				if idrows != ldrows || idtuples != ldtuples {
					t.Fatalf("indexed=%v %s trial %d (%s): delta gate counters diverge: interned rows=%d tuples=%d legacy rows=%d tuples=%d",
						indexed, gen.name, trial, q, idrows, idtuples, ldrows, ldtuples)
				}
			}
			if gen.name == "cut" && cuts < 150 {
				t.Errorf("indexed=%v: the head cut applied in only %d of the cut generator's trials", indexed, cuts)
			}
		}
	}
}
