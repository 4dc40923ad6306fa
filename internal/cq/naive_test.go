package cq_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/cq"
	"repro/internal/cq/cqtest"
	"repro/internal/query"
	"repro/internal/relation"
)

// These tests check the join engine against the naive reference
// evaluator of package cqtest, which matches atoms in written order by
// nested loops over Instance.Tuples and shares no evaluation code with
// the engine.

// bindingKeys serializes bindings over the tableau's variables and
// returns them sorted, so two multisets compare as slices. Every
// tableau variable is a variable of the query, and the query's other
// variables are equal to one of them or to a constant, so the
// projection loses nothing.
func bindingKeys(tb *cq.Tableau, bs []query.Binding) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
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
		out[i] = sb.String()
	}
	slices.Sort(out)
	return out
}

// collect runs an enumeration that hands reused bindings to fn and
// returns copies of them.
func collect(t *testing.T, run func(fn func(query.Binding) bool) error) []query.Binding {
	t.Helper()
	var out []query.Binding
	if err := run(func(b query.Binding) bool {
		out = append(out, b.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameTuples(a, b []relation.Tuple) bool {
	return slices.EqualFunc(a, b, relation.Tuple.Equal)
}

// TestEvalInternedMatchesLegacy checks the engine against the naive
// evaluator on both random generators: EvalGate's answers (order
// included), the bindings of EvalFuncGate and the bindings of the
// differential join, each taken as a multiset. randomCutCase's
// early-bound, Boolean and constant heads with many matches per answer
// make EvalGate's head cut fire. A query BuildTableau rejects as
// unsatisfiable must have no naive answers either.
func TestEvalInternedMatchesLegacy(t *testing.T) {
	ctx := context.Background()
	generators := []struct {
		name string
		seed int64
		draw func(*rand.Rand) (*cq.CQ, *relation.Database, *relation.Database)
	}{{"delta", 97, cq.RandomDeltaCase}, {"cut", 98, cq.RandomCutCase}}
	for _, gen := range generators {
		cuts := 0
		rng := rand.New(rand.NewSource(gen.seed))
		for trial := 0; trial < 250; trial++ {
			q, d, delta := gen.draw(rng)
			tb, err := cq.BuildTableau(q)
			if err != nil {
				if got := cqtest.Eval(q, d); len(got) != 0 {
					t.Fatalf("%s trial %d (%s): BuildTableau: %v, but the naive evaluator answers %v", gen.name, trial, q, err, got)
				}
				continue
			}
			if cq.CutDepth(tb, d) >= 0 {
				cuts++
			}
			g := query.NewGate(ctx, 1<<40, 1<<40)
			ans, err := q.EvalGate(d, g)
			if err != nil {
				t.Fatalf("%s trial %d: EvalGate: %v", gen.name, trial, err)
			}
			if want := cqtest.Eval(q, d); !sameTuples(ans, want) {
				t.Fatalf("%s trial %d (%s): EvalGate answers %v, naive %v\nD:\n%v", gen.name, trial, q, ans, want, d)
			}
			got := bindingKeys(tb, collect(t, func(fn func(query.Binding) bool) error { return tb.EvalFuncGate(d, g, fn) }))
			if want := bindingKeys(tb, cqtest.Bindings(q, d)); !slices.Equal(got, want) {
				t.Fatalf("%s trial %d (%s): EvalFuncGate bindings %q, naive %q\nD:\n%v", gen.name, trial, q, got, want, d)
			}
			got = bindingKeys(tb, collect(t, func(fn func(query.Binding) bool) error { return tb.EvalFuncDeltaGate(d, delta, g, fn) }))
			if want := bindingKeys(tb, cqtest.DeltaBindings(q, d, delta)); !slices.Equal(got, want) {
				t.Fatalf("%s trial %d (%s): differential bindings %q, naive %q\nD:\n%v\ndelta:\n%v", gen.name, trial, q, got, want, d, delta)
			}
		}
		if gen.name == "cut" && cuts < 150 {
			t.Errorf("the head cut applied in only %d of the cut generator's trials", cuts)
		}
	}
}

// TestIndexedEvalMatchesScanRandom checks Eval over d ∪ delta against
// the naive evaluator's full scans: the answers must agree tuple for
// tuple. Every fifth trial adds R('a', v_i) for 70 values v_i and
// S(v_i, 'b') for 40 of them, so the join probes real posting
// containers — rank arrays, and a bitset for the 70 rows of R with
// 'a' in its first column — rather than scanning a small instance.
func TestIndexedEvalMatchesScanRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 300; trial++ {
		q, d, delta := cq.RandomDeltaCase(rng)
		full := d.Union(delta)
		if trial%5 == 0 {
			for i := 0; i < 70; i++ {
				full.MustAdd("R", "a", fmt.Sprint("v", i))
				if i < 40 {
					full.MustAdd("S", fmt.Sprint("v", i), "b")
				}
			}
		}
		if got, want := q.Eval(full), cqtest.Eval(q, full); !sameTuples(got, want) {
			t.Fatalf("trial %d: indexed %v, scan %v\nq: %v\ndb:\n%v", trial, got, want, q, full)
		}
	}
}

// fuzzCase decodes fuzz input into a 1–4 atom CQ over R(a,b) and
// S(b,c) — variables x, y, z, w and constants a, b as arguments, a head
// of up to two atom variables or constants, up to two = or ≠
// conditions over the same, so the query is always safe — and a base D of up to 7 and a delta of 1–3 tuples over
// the values a, b, c. Exhausted input reads as zero bytes.
func fuzzCase(data []byte) (*cq.CQ, *relation.Database, *relation.Database) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	terms := []query.Term{query.Var("x"), query.Var("y"), query.Var("z"), query.Var("w"), query.C("a"), query.C("b")}
	rels := []string{"R", "S"}
	var atoms []query.RelAtom
	var vars []query.Term
	for i, n := 0, 1+next()%4; i < n; i++ {
		a := query.Atom(rels[next()%2], terms[next()%len(terms)], terms[next()%len(terms)])
		for _, tm := range a.Args {
			if tm.IsVar && !slices.Contains(vars, tm) {
				vars = append(vars, tm)
			}
		}
		atoms = append(atoms, a)
	}
	pick := func() query.Term {
		k := next() % (len(vars) + 2)
		if k < len(vars) {
			return vars[k]
		}
		return terms[4+k-len(vars)]
	}
	var head []query.Term
	for i, n := 0, next()%3; i < n; i++ {
		head = append(head, pick())
	}
	var conds []query.EqAtom
	for i, n := 0, next()%3; i < n; i++ {
		if next()%2 == 0 {
			conds = append(conds, query.Eq(pick(), pick()))
		} else {
			conds = append(conds, query.Neq(pick(), pick()))
		}
	}
	rs := relation.NewSchema("R", relation.Attr("a"), relation.Attr("b"))
	ss := relation.NewSchema("S", relation.Attr("b"), relation.Attr("c"))
	vals := []string{"a", "b", "c"}
	mk := func(n int) *relation.Database {
		db := relation.NewDatabase(rs, ss)
		for i := 0; i < n; i++ {
			db.MustAdd(rels[next()%2], vals[next()%3], vals[next()%3])
		}
		return db
	}
	d := mk(next() % 8)
	return cq.New("qf", head, atoms, conds...), d, mk(1 + next()%3)
}

// FuzzEvalNaive checks the engine against the naive evaluator on
// decoded queries and databases: EvalGate's answers, the bindings of
// EvalFuncGate as a set, and the head rows of a prepared DeltaJoin,
// which must be exactly the answers over D ∪ Δ with a match that uses a
// Δ tuple.
func FuzzEvalNaive(f *testing.F) {
	// Shapes of randomCutCase over a dense D: an early-bound head
	// variable, a Boolean query with ≠, a constant head.
	f.Add([]byte{2, 0, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 0, 7, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 2, 1, 1, 0, 0, 1, 0, 1, 2, 2, 1, 1, 0, 0, 0, 2, 0})
	f.Add([]byte{1, 0, 0, 1, 1, 1, 2, 0, 1, 1, 0, 2, 6, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1, 1, 2, 1, 0, 0, 0, 2, 1, 0, 1, 1, 1})
	f.Add([]byte{2, 1, 0, 1, 0, 1, 0, 0, 0, 2, 1, 4, 0, 7, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 2, 1, 0, 1, 1, 2, 0, 0, 1, 1, 1, 1, 0, 2, 2})
	// Shapes of randomDeltaCase: a ≠ between head variables, constant
	// arguments, an equality to a constant, each with a Δ overlapping D.
	f.Add([]byte{1, 0, 0, 1, 1, 1, 2, 2, 0, 1, 1, 1, 0, 1, 4, 0, 0, 1, 1, 1, 2, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1, 0, 2, 2})
	f.Add([]byte{1, 0, 0, 4, 1, 4, 2, 1, 0, 0, 3, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 0, 0, 1, 0, 2, 0, 1, 0})
	f.Add([]byte{1, 0, 0, 1, 1, 1, 2, 1, 1, 1, 0, 2, 4, 5, 0, 0, 1, 1, 1, 1, 1, 1, 0, 0, 2, 1, 1, 1, 2, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, d, delta := fuzzCase(data)
		tb, err := cq.BuildTableau(q)
		if err != nil {
			if got := cqtest.Eval(q, d); len(got) != 0 {
				t.Fatalf("%s: BuildTableau: %v, but the naive evaluator answers %v", q, err, got)
			}
			return
		}
		if got, want := tb.Eval(d), cqtest.Eval(q, d); !sameTuples(got, want) {
			t.Fatalf("%s: EvalGate answers %v, naive %v\nD:\n%v", q, got, want, d)
		}
		got := slices.Compact(bindingKeys(tb, collect(t, func(fn func(query.Binding) bool) error { return tb.EvalFuncGate(d, nil, fn) })))
		if want := slices.Compact(bindingKeys(tb, cqtest.Bindings(q, d))); !slices.Equal(got, want) {
			t.Fatalf("%s: EvalFuncGate bindings %q, naive %q\nD:\n%v", q, got, want, d)
		}
		heads := make(map[string]bool)
		err = tb.PrepareDelta(d).Run(delta, nil, func(head []int32) bool {
			h := make(relation.Tuple, len(head))
			for i, id := range head {
				h[i] = relation.Shared().Value(id)
			}
			heads[h.Key()] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]bool)
		for _, b := range cqtest.Bindings(q, d.Union(delta)) {
			usesDelta := slices.ContainsFunc(q.Atoms, func(a query.RelAtom) bool {
				tup, _ := a.Ground(b)
				return delta.Contains(a.Rel, tup)
			})
			if h, ok := cqtest.Head(q, b); ok && usesDelta {
				want[h.Key()] = true
			}
		}
		if !maps.Equal(heads, want) {
			t.Fatalf("%s: DeltaJoin heads %v, naive %v\nD:\n%v\ndelta:\n%v", q, heads, want, d, delta)
		}
	})
}
