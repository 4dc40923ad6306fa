package cq

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// These tests pin EvalGate's head cut: the answer set is that of a full
// enumeration, the rows charged never exceed that enumeration's, and a
// query whose head has no variables stops at its first match.

// randomCutCase draws a query the head cut applies to, over R(a,b) and
// S(b,c): 2–4 atoms, a head that is empty (a Boolean query), a constant,
// or some variables of one atom — so the plan often binds the head long
// before the leaf — and a base database of 4–16 tuples over three
// values, dense enough that most answers have several matches. The
// delta is drawn as in randomDeltaCase.
func randomCutCase(rng *rand.Rand) (*CQ, *relation.Database, *relation.Database) {
	rs := relation.NewSchema("R", relation.Attr("a"), relation.Attr("b"))
	ss := relation.NewSchema("S", relation.Attr("b"), relation.Attr("c"))
	vals := []string{"a", "b", "c"}
	rv := func() string { return vals[rng.Intn(len(vals))] }
	mk := func(n int) *relation.Database {
		db := relation.NewDatabase(rs, ss)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				db.MustAdd("R", rv(), rv())
			} else {
				db.MustAdd("S", rv(), rv())
			}
		}
		return db
	}
	d := mk(4 + rng.Intn(13))
	delta := mk(rng.Intn(3) + 1)

	terms := []query.Term{query.Var("x"), query.Var("y"), query.Var("z"), query.Var("w"), query.C("a")}
	rt := func() query.Term { return terms[rng.Intn(len(terms))] }
	var atoms []query.RelAtom
	var vars []query.Term
	for i, n := 0, rng.Intn(3)+2; i < n; i++ {
		rel := "R"
		if rng.Intn(2) == 0 {
			rel = "S"
		}
		a := query.Atom(rel, rt(), rt())
		atoms = append(atoms, a)
		for _, tm := range a.Args {
			if tm.IsVar && !slices.Contains(vars, tm) {
				vars = append(vars, tm)
			}
		}
	}
	var head []query.Term
	switch rng.Intn(4) {
	case 0: // Boolean
	case 1:
		head = []query.Term{query.C("b")}
	default:
		for _, tm := range atoms[rng.Intn(len(atoms))].Args {
			if tm.IsVar && !slices.Contains(head, tm) && rng.Intn(3) > 0 {
				head = append(head, tm)
			}
		}
	}
	var conds []query.EqAtom
	if len(vars) >= 2 && rng.Intn(3) == 0 {
		conds = append(conds, query.Neq(vars[0], vars[1]))
	}
	return New("qc", head, atoms, conds...), d, delta
}

// headVars reports whether the tableau's head has a variable.
func headVars(tb *Tableau) bool {
	return slices.ContainsFunc(tb.Head, func(h query.Term) bool { return h.IsVar })
}

// TestEvalGateHeadCut checks that EvalGate answers exactly the
// distinct head rows of a full EvalFuncGate enumeration while charging
// no more rows than it, and that a query without head variables
// charges exactly the rows of an enumeration stopped at its first
// match.
func TestEvalGateHeadCut(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	cuts, saved, firstMatch := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		q, d, _ := randomCutCase(rng)
		tb, err := BuildTableau(q)
		if err != nil {
			continue
		}
		full := query.NewGate(ctx, 0, 0)
		want := make(map[string]bool)
		if err := tb.EvalFuncGate(d, full, func(b query.Binding) bool {
			if h, ok := tb.HeadTuple(b); ok {
				want[h.Key()] = true
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		g := query.NewGate(ctx, 0, 0)
		got, err := tb.EvalGate(d, g)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%s): %d answers, full enumeration has %d distinct", trial, q, len(got), len(want))
		}
		for _, h := range got {
			if !want[h.Key()] {
				t.Fatalf("trial %d (%s): answer %v is no head row of the full enumeration", trial, q, h)
			}
		}
		if g.Rows() > full.Rows() {
			t.Fatalf("trial %d (%s): cut charged %d rows, full enumeration %d", trial, q, g.Rows(), full.Rows())
		}
		if tb.cutDepth(tb.planOrder(d)) >= 0 {
			cuts++
		}
		if g.Rows() < full.Rows() {
			saved++
		}
		if headVars(tb) || len(want) == 0 {
			continue
		}
		first := query.NewGate(ctx, 0, 0)
		if err := tb.EvalFuncGate(d, first, func(query.Binding) bool { return false }); err != nil {
			t.Fatal(err)
		}
		if g.Rows() != first.Rows() {
			t.Fatalf("trial %d (%s): head without variables charged %d rows, first match takes %d",
				trial, q, g.Rows(), first.Rows())
		}
		firstMatch++
	}
	t.Logf("cut applied in %d trials, saved rows in %d, %d stopped at the first match", cuts, saved, firstMatch)
	if cuts < 100 || saved < 50 || firstMatch < 50 {
		t.Errorf("the generator exercised the cut too little (cut %d, saved %d, first match %d)", cuts, saved, firstMatch)
	}
}

// TestEvalGateHeadCutGateStop checks that a gate trip inside a subtree
// below the cut stops the whole evaluation instead of passing for the
// subtree's "settled" signal: Q(x) :- R(x,y), S(y,z), S(z,x) has no
// answers (no x of R occurs in S), so every subtree below the cut
// (depth 1, x bound) runs to its end, and a one-row budget must stop
// the join at its first batched gate charge.
func TestEvalGateHeadCutGateStop(t *testing.T) {
	ss := testSchemas()
	d := relation.NewDatabase(ss["R"], ss["S"])
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i < 4 {
				d.MustAdd("R", fmt.Sprint("p", i), fmt.Sprint(j))
			}
			d.MustAdd("S", fmt.Sprint(i), fmt.Sprint(j))
		}
	}
	q := New("Q", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y")), atom("S", v("y"), v("z")), atom("S", v("z"), v("x"))})
	tb, err := q.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if depth := tb.cutDepth(tb.planOrder(d)); depth != 1 {
		t.Fatalf("cut depth %d, want 1", depth)
	}
	full := query.NewGate(context.Background(), 0, 0)
	if out, err := tb.EvalGate(d, full); err != nil || len(out) != 0 {
		t.Fatalf("%d answers, err %v; want none", len(out), err)
	}
	if full.Rows() <= 2*gateFlushRows {
		t.Fatalf("full evaluation charges %d rows, too few to tell a stop from a resume", full.Rows())
	}
	g := query.NewGate(context.Background(), 1, 0)
	if out, err := tb.EvalGate(d, g); err != query.ErrRowBudget || out != nil {
		t.Fatalf("one-row budget gave %d answers, err %v; want ErrRowBudget", len(out), err)
	}
	if g.Rows() != gateFlushRows {
		t.Errorf("charged %d rows after the trip, want the one batch of %d that tripped it", g.Rows(), gateFlushRows)
	}
}
