package cq

import (
	"testing"

	"repro/internal/query"
	"repro/internal/relation"
)

// testSchemas builds a small two-relation schema used across the tests:
// R(a, b) and S(b, c) over infinite domains, plus F(p) over {0,1}.
func testSchemas() map[string]*relation.Schema {
	return map[string]*relation.Schema{
		"R": relation.NewSchema("R", relation.Attr("a"), relation.Attr("b")),
		"S": relation.NewSchema("S", relation.Attr("b"), relation.Attr("c")),
		"F": relation.NewSchema("F", relation.FinAttr("p", "0", "1")),
	}
}

func testDB(t *testing.T) *relation.Database {
	t.Helper()
	ss := testSchemas()
	d := relation.NewDatabase(ss["R"], ss["S"], ss["F"])
	d.MustAdd("R", "1", "x")
	d.MustAdd("R", "2", "y")
	d.MustAdd("S", "x", "u")
	d.MustAdd("S", "y", "v")
	d.MustAdd("F", "0")
	return d
}

func v(n string) query.Term                         { return query.Var(n) }
func c(s string) query.Term                         { return query.C(s) }
func atom(r string, ts ...query.Term) query.RelAtom { return query.Atom(r, ts...) }

func TestEvalJoin(t *testing.T) {
	// Q(a, c) :- R(a, b), S(b, c)
	q := New("Q", []query.Term{v("a"), v("c")},
		[]query.RelAtom{atom("R", v("a"), v("b")), atom("S", v("b"), v("c"))})
	got := q.Eval(testDB(t))
	want := []relation.Tuple{relation.T("1", "u"), relation.T("2", "v")}
	if len(got) != 2 || !got[0].Equal(want[0]) || !got[1].Equal(want[1]) {
		t.Fatalf("Eval = %v, want %v", got, want)
	}
}

func TestEvalWithConstantAndInequality(t *testing.T) {
	// Q(a) :- R(a, b), a != '1'
	q := New("Q", []query.Term{v("a")},
		[]query.RelAtom{atom("R", v("a"), v("b"))},
		query.Neq(v("a"), c("1")))
	got := q.Eval(testDB(t))
	if len(got) != 1 || got[0][0] != "2" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestEvalEqualityFolding(t *testing.T) {
	// Q(a) :- R(a, b), S(b2, c), b = b2, c = 'u'
	q := New("Q", []query.Term{v("a")},
		[]query.RelAtom{atom("R", v("a"), v("b")), atom("S", v("b2"), v("c"))},
		query.Eq(v("b"), v("b2")), query.Eq(v("c"), c("u")))
	got := q.Eval(testDB(t))
	if len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestEvalRepeatedVariable(t *testing.T) {
	ss := testSchemas()
	d := relation.NewDatabase(ss["R"])
	d.MustAdd("R", "a", "a")
	d.MustAdd("R", "a", "b")
	q := New("Q", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("x"))})
	got := q.Eval(d)
	if len(got) != 1 || got[0][0] != "a" {
		t.Fatalf("Eval = %v", got)
	}
}

func TestEvalBooleanQuery(t *testing.T) {
	q := New("Q", nil, []query.RelAtom{atom("R", c("1"), v("b"))})
	if !q.EvalBool(testDB(t)) {
		t.Fatal("boolean query should hold")
	}
	q2 := New("Q", nil, []query.RelAtom{atom("R", c("7"), v("b"))})
	if q2.EvalBool(testDB(t)) {
		t.Fatal("boolean query should fail")
	}
}

func TestUnsatisfiableEvalEmpty(t *testing.T) {
	q := New("Q", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y"))},
		query.Eq(v("x"), c("1")), query.Eq(v("x"), c("2")))
	if got := q.Eval(testDB(t)); len(got) != 0 {
		t.Fatalf("unsatisfiable query returned %v", got)
	}
}

func TestValidate(t *testing.T) {
	ss := testSchemas()
	ok := New("Q", []query.Term{v("a")}, []query.RelAtom{atom("R", v("a"), v("b"))})
	if err := ok.Validate(ss); err != nil {
		t.Fatal(err)
	}
	unknown := New("Q", nil, []query.RelAtom{atom("Z", v("a"))})
	if unknown.Validate(ss) == nil {
		t.Fatal("unknown relation accepted")
	}
	badArity := New("Q", nil, []query.RelAtom{atom("R", v("a"))})
	if badArity.Validate(ss) == nil {
		t.Fatal("bad arity accepted")
	}
	unsafe := New("Q", []query.Term{v("z")}, []query.RelAtom{atom("R", v("a"), v("b"))})
	if unsafe.Validate(ss) == nil {
		t.Fatal("unsafe head variable accepted")
	}
	// z is safe through equality chain z = w, w = a.
	safeViaEq := New("Q", []query.Term{v("z")},
		[]query.RelAtom{atom("R", v("a"), v("b"))},
		query.Eq(v("w"), v("a")), query.Eq(v("z"), v("w")))
	if err := safeViaEq.Validate(ss); err != nil {
		t.Fatal(err)
	}
	// Safe via constant equality.
	safeViaConst := New("Q", nil,
		[]query.RelAtom{atom("R", v("a"), v("b"))},
		query.Neq(v("z"), v("a")), query.Eq(v("z"), c("7")))
	if err := safeViaConst.Validate(ss); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTableauUnification(t *testing.T) {
	// x = y, y = 'c' collapses both to the constant.
	q := New("Q", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y"))},
		query.Eq(v("x"), v("y")), query.Eq(v("y"), c("k")))
	tb, err := BuildTableau(q)
	if err != nil {
		t.Fatal(err)
	}
	a := tb.Templates[0]
	if a.Args[0].IsVar || a.Args[0].Val != "k" || a.Args[1].IsVar {
		t.Fatalf("templates not collapsed: %v", a)
	}
	if tb.Head[0].IsVar {
		t.Fatal("head not collapsed")
	}
	if len(tb.Vars) != 0 {
		t.Fatalf("vars: %v", tb.Vars)
	}
}

func TestBuildTableauConflicts(t *testing.T) {
	mk := func(conds ...query.EqAtom) *CQ {
		return New("Q", nil, []query.RelAtom{atom("R", v("x"), v("y"))}, conds...)
	}
	bad := []*CQ{
		mk(query.Eq(v("x"), c("1")), query.Eq(v("x"), c("2"))),
		mk(query.Eq(v("x"), v("y")), query.Eq(v("x"), c("1")), query.Eq(v("y"), c("2"))),
		mk(query.Neq(v("x"), v("x"))),
		mk(query.Eq(v("x"), v("y")), query.Neq(v("x"), v("y"))),
		mk(query.Eq(c("1"), c("2"))),
		mk(query.Eq(v("x"), c("1")), query.Neq(v("x"), c("1"))),
	}
	for i, q := range bad {
		if _, err := BuildTableau(q); err == nil {
			t.Errorf("case %d: expected unsatisfiable", i)
		}
	}
	// Trivially true inequality between distinct constants is dropped.
	okq := mk(query.Neq(c("1"), c("2")))
	tb, err := BuildTableau(okq)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Diseqs) != 0 {
		t.Fatalf("trivial diseq kept: %v", tb.Diseqs)
	}
}

func TestSatisfiableFiniteDomains(t *testing.T) {
	ss := map[string]*relation.Schema{
		"B": relation.NewSchema("B", relation.FinAttr("p", "0", "1"), relation.FinAttr("q", "0", "1")),
	}
	// Three pairwise-distinct variables over {0,1}: unsatisfiable.
	q := New("Q", nil,
		[]query.RelAtom{atom("B", v("x"), v("y")), atom("B", v("z"), v("z"))},
		query.Neq(v("x"), v("y")), query.Neq(v("y"), v("z")), query.Neq(v("x"), v("z")))
	if Satisfiable(q, ss) {
		t.Fatal("2-coloring of a triangle reported satisfiable")
	}
	// Two distinct variables over {0,1}: satisfiable.
	q2 := New("Q", nil,
		[]query.RelAtom{atom("B", v("x"), v("y"))},
		query.Neq(v("x"), v("y")))
	if !Satisfiable(q2, ss) {
		t.Fatal("satisfiable query reported unsat")
	}
	// Finite variable with both domain values excluded.
	q3 := New("Q", nil,
		[]query.RelAtom{atom("B", v("x"), v("y"))},
		query.Neq(v("x"), c("0")), query.Neq(v("x"), c("1")))
	if Satisfiable(q3, ss) {
		t.Fatal("excluded finite domain reported satisfiable")
	}
}

func TestSatisfiableInfinite(t *testing.T) {
	ss := testSchemas()
	q := New("Q", nil,
		[]query.RelAtom{atom("R", v("x"), v("y")), atom("R", v("z"), v("w"))},
		query.Neq(v("x"), v("y")), query.Neq(v("x"), v("z")), query.Neq(v("y"), v("z")))
	if !Satisfiable(q, ss) {
		t.Fatal("infinite-domain diseqs always satisfiable")
	}
}

func TestVarDomainsIntersection(t *testing.T) {
	ss := map[string]*relation.Schema{
		"A": relation.NewSchema("A", relation.FinAttr("p", "0", "1", "2")),
		"B": relation.NewSchema("B", relation.FinAttr("p", "1", "2", "3")),
		"C": relation.NewSchema("C", relation.FinAttr("p", "8", "9")),
	}
	q := New("Q", nil, []query.RelAtom{atom("A", v("x")), atom("B", v("x"))})
	doms, ok := q.VarDomains(ss)
	if !ok {
		t.Fatal("nonempty intersection reported empty")
	}
	want := relation.FiniteDomain("1", "2")
	if !doms["x"].Equal(want) {
		t.Fatalf("domain of x: %v", doms["x"])
	}
	q2 := New("Q", nil, []query.RelAtom{atom("A", v("x")), atom("C", v("x"))})
	if _, ok := q2.VarDomains(ss); ok {
		t.Fatal("empty intersection not detected")
	}
}

func TestRename(t *testing.T) {
	q := New("Q", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y"))},
		query.Neq(v("x"), v("y")))
	r := q.Rename("p_")
	if r.Head[0].Name != "p_x" || r.Atoms[0].Args[1].Name != "p_y" || r.Conds[0].L.Name != "p_x" {
		t.Fatalf("Rename: %v", r)
	}
	if q.Head[0].Name != "x" {
		t.Fatal("Rename mutated original")
	}
}

func TestCloneDeep(t *testing.T) {
	q := New("Q", []query.Term{v("x")}, []query.RelAtom{atom("R", v("x"), v("y"))})
	cp := q.Clone()
	cp.Atoms[0].Args[0] = c("z")
	if !q.Atoms[0].Args[0].IsVar {
		t.Fatal("Clone not deep")
	}
}

func TestStringRendering(t *testing.T) {
	q := New("Q", []query.Term{v("x")},
		[]query.RelAtom{atom("R", v("x"), v("y"))},
		query.Neq(v("x"), c("1")))
	want := "Q(x) :- R(x, y), x != '1'"
	if q.String() != want {
		t.Fatalf("String = %q, want %q", q.String(), want)
	}
}

func TestTableauApplyAndHead(t *testing.T) {
	ss := testSchemas()
	q := New("Q", []query.Term{v("a")},
		[]query.RelAtom{atom("R", v("a"), v("b")), atom("S", v("b"), c("u"))})
	tb, err := BuildTableau(q)
	if err != nil {
		t.Fatal(err)
	}
	b := query.Binding{"a": "1", "b": "x"}
	db, err := tb.Apply(b, ss)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Contains("R", relation.T("1", "x")) || !db.Contains("S", relation.T("x", "u")) {
		t.Fatalf("Apply: %v", db)
	}
	h, ok := tb.HeadTuple(b)
	if !ok || h[0] != "1" {
		t.Fatalf("HeadTuple: %v", h)
	}
	if _, ok := tb.HeadTuple(query.Binding{}); ok {
		t.Fatal("HeadTuple with unbound var must fail")
	}
	if _, err := tb.Apply(query.Binding{"a": "1"}, ss); err == nil {
		t.Fatal("Apply with unbound var must fail")
	}
}

// TestApplyIDsMatchesApply instantiates a tableau by binding (Apply)
// and by id rows (ApplyIDs), and checks that a reused fragment is
// emptied before it is refilled.
func TestApplyIDsMatchesApply(t *testing.T) {
	ss := testSchemas()
	tb, err := BuildTableau(New("Q", []query.Term{v("a")},
		[]query.RelAtom{atom("R", v("a"), v("b")), atom("S", v("b"), c("u"))}))
	if err != nil {
		t.Fatal(err)
	}
	id := relation.Shared().Intern
	want, err := tb.Apply(query.Binding{"a": "1", "b": "x"}, ss)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]int32{{id("1"), id("x")}, {id("x"), id("u")}}
	got, err := tb.ApplyIDs(rows, ss, nil)
	if err != nil || !got.Equal(want) {
		t.Fatalf("ApplyIDs = %v, %v; Apply = %v", got, err, want)
	}
	rows = [][]int32{{id("2"), id("y")}, {id("y"), id("u")}}
	again, err := tb.ApplyIDs(rows, ss, got)
	if err != nil || again != got || again.TupleCount() != 2 || !again.Contains("R", relation.T("2", "y")) {
		t.Fatalf("reused fragment = %v, %v", again, err)
	}
	if _, err := tb.ApplyIDs(rows[:1], ss, nil); err == nil {
		t.Fatal("short row list accepted")
	}
}
