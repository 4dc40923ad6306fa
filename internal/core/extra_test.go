package core

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

func TestUniverse(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "s", "c1")
	dm := emptyMaster()
	dm.MustAdd("Rm0", "m1")
	u := NewUniverse(d, dm, q2(), cc.NewSet(), 3)
	if len(u.Fresh) != 3 {
		t.Fatalf("fresh pool: %v", u.Fresh)
	}
	for i, f := range u.Fresh {
		for _, c := range u.Consts {
			if f == c {
				t.Fatalf("fresh value %q collides with a constant", f)
			}
		}
		if relation.Shared().Value(u.freshIDs[i]) != f {
			t.Fatalf("fresh id %d does not denote %q", u.freshIDs[i], f)
		}
	}
	// Constants: e0 (query), e0/s/c1 (D), m1 (Dm).
	want := map[relation.Value]bool{"e0": true, "s": true, "c1": true, "m1": true}
	if len(u.Consts) != len(want) {
		t.Fatalf("consts: %v", u.Consts)
	}
	for _, c := range u.Consts {
		if !want[c] {
			t.Fatalf("unexpected constant %q", c)
		}
	}
	// AdomFor: finite domains are returned verbatim; infinite domains
	// get constants plus the fresh pool.
	fin := relation.FiniteDomain("0", "1")
	if got := u.AdomFor(fin); len(got) != 2 {
		t.Fatalf("finite adom: %v", got)
	}
	if got := u.AdomFor(relation.InfiniteDomain()); len(got) != len(u.Consts)+3 {
		t.Fatalf("infinite adom: %v", got)
	}
}

func TestStatusString(t *testing.T) {
	if Yes.String() != "yes" || No.String() != "no" || Unknown.String() != "unknown" {
		t.Fatal("Status String wrong")
	}
}

func TestCompleteDatabaseINDs(t *testing.T) {
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dcust := relation.NewSchema("DCust", relation.Attr("cid"))
	dm := relation.NewDatabase(dcust)
	dm.MustAdd("DCust", "c1")
	dm.MustAdd("DCust", "c2")
	vset := cc.NewSet(cc.NewIND("i1", "Supt", []int{2}, 3, cc.Proj("DCust", 0)))
	qc := qlang.FromCQ(cq.New("Qc", []query.Term{v("c")},
		[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))}))

	w, err := CompleteDatabaseINDs(qc, dm, vset, schemas, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w == nil {
		t.Fatal("witness not constructed")
	}
	// The witness must answer both master cids and be complete.
	ans, _ := qc.Eval(w)
	if len(ans) != 2 {
		t.Fatalf("witness answers %v", ans)
	}
	r, err := RCDP(qc, w, dm, vset)
	if err != nil || !r.Complete {
		t.Fatalf("witness incomplete: %v %v", r, err)
	}
	// Cap smaller than the answer space: no witness, no error.
	w2, err := CompleteDatabaseINDs(qc, dm, vset, schemas, 1)
	if err != nil || w2 != nil {
		t.Fatalf("cap should yield nil witness: %v %v", w2, err)
	}
	// Non-IND constraints are rejected.
	if _, err := CompleteDatabaseINDs(qc, dm, cc.NewSet(cc.AtMostK("k", "Supt", 3, []int{0}, 2, 1)), schemas, 10); err == nil {
		t.Fatal("non-IND set accepted")
	}
}

func TestMakeCompleteDiverges(t *testing.T) {
	// Q2 with no constraints has an unbounded answer space: MakeComplete
	// must give up after its round cap.
	d := relation.NewDatabase(suptSchema())
	dm := emptyMaster()
	if _, _, err := MakeComplete(q2(), d, dm, cc.NewSet(), 5); err == nil {
		t.Fatal("divergent completion must error out")
	}
}

func TestRCQPwithUCQandEFO(t *testing.T) {
	schemas := map[string]*relation.Schema{"Supt": suptSchema()}
	dcust := relation.NewSchema("DCust", relation.Attr("cid"))
	dm := relation.NewDatabase(dcust)
	dm.MustAdd("DCust", "c1")
	vset := cc.NewSet(cc.NewIND("i1", "Supt", []int{2}, 3, cc.Proj("DCust", 0)))

	u := cq.Union("U",
		cq.New("u1", []query.Term{v("c")},
			[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
			query.Eq(v("e"), c("e0"))),
		cq.New("u2", []query.Term{v("c")},
			[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))},
			query.Eq(v("e"), c("e1"))),
	)
	res, err := RCQP(qlang.FromUCQ(u), dm, vset, schemas)
	if err != nil || res.Status != Yes {
		t.Fatalf("UCQ over bounded cid: %v %v", res, err)
	}

	body := cq.Or(
		cq.And(cq.FAtom("Supt", v("e"), v("d"), v("c")), cq.FEq(v("e"), c("e0"))),
		cq.And(cq.FAtom("Supt", v("e"), v("d"), v("c")), cq.FEq(v("e"), c("e1"))),
	)
	efoq := qlang.FromEFO(cq.NewEFO("Qe", []query.Term{v("c")}, body))
	res, err = RCQP(efoq, dm, vset, schemas)
	if err != nil || res.Status != Yes {
		t.Fatalf("∃FO⁺ over bounded cid: %v %v", res, err)
	}

	// A disjunct projecting the unbounded dept makes it no.
	bad := cq.Union("B",
		u.Disjuncts[0],
		cq.New("u3", []query.Term{v("d")},
			[]query.RelAtom{query.Atom("Supt", v("e"), v("d"), v("c"))}),
	)
	res, err = RCQP(qlang.FromUCQ(bad), dm, vset, schemas)
	if err != nil || res.Status != No {
		t.Fatalf("unbounded disjunct must be no: %v %v", res, err)
	}
}

func TestBoundedRCDPPreconditions(t *testing.T) {
	d := relation.NewDatabase(suptSchema())
	d.MustAdd("Supt", "e0", "a", "c1")
	d.MustAdd("Supt", "e0", "b", "c1")
	dm := emptyMaster()
	fd := &cc.FD{Name: "fd", Rel: "Supt", From: []int{0}, To: []int{1}}
	vset := cc.NewSet(fd.ToCCs(3)...)
	if _, err := BoundedRCDP(q2(), d, dm, vset, BoundedOpts{}); err == nil {
		t.Fatal("non-partially-closed D must be rejected")
	}
	// Pool explosion guard.
	wide := relation.NewSchema("W",
		relation.Attr("a"), relation.Attr("b"), relation.Attr("c"),
		relation.Attr("d"), relation.Attr("e"), relation.Attr("f"))
	dw := relation.NewDatabase(wide)
	for i := 0; i < 20; i++ {
		dw.MustAdd("W", "a", "b", "c", "d", "e", string(rune('a'+i)))
	}
	qw := qlang.FromCQ(cq.New("Q", []query.Term{v("x")},
		[]query.RelAtom{query.Atom("W", v("x"), v("y"), v("z"), v("u"), v("w"), v("t"))}))
	if _, err := BoundedRCDP(qw, dw, dm, cc.NewSet(), BoundedOpts{MaxPool: 1000}); err == nil {
		t.Fatal("pool explosion must be reported")
	}
}

// TestRCDPMonotonicityProperty: a randomized invariant — whenever RCDP
// reports complete, a random legal single-tuple extension must not
// change the answer (spot-checking the definition directly).
func TestRCDPMonotonicityProperty(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 2))
	dm := emptyMaster()
	vals := []string{"e0", "x", "c1", "c2", "c3"}
	for seed := 0; seed < 40; seed++ {
		d := relation.NewDatabase(suptSchema())
		n := seed % 4
		for i := 0; i < n; i++ {
			d.MustAdd("Supt", vals[(seed+i)%3], "s", vals[2+(seed+i)%3])
		}
		if ok, _ := vset.Satisfied(d, dm); !ok {
			continue
		}
		r, err := RCDP(q2(), d, dm, vset)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Complete {
			continue
		}
		base, _ := q2().Eval(d)
		// Try every single-tuple extension over the value pool.
		for _, a := range vals {
			for _, b := range vals {
				for _, cv := range vals {
					ext := d.Clone()
					ext.MustAdd("Supt", a, b, cv)
					if ok, _ := vset.Satisfied(ext, dm); !ok {
						continue
					}
					after, _ := q2().Eval(ext)
					if len(after) != len(base) {
						t.Fatalf("seed %d: complete D changed by legal extension (%s,%s,%s)", seed, a, b, cv)
					}
				}
			}
		}
	}
}

// TestInertPositions sanity-checks the inert-position analysis on the
// at-most-k constraint: the employee and customer columns are
// constrained, the department column is inert.
func TestInertPositions(t *testing.T) {
	vset := cc.NewSet(cc.AtMostK("phi1", "Supt", 3, []int{0}, 2, 2))
	constrained := inertPositions(vset)
	if !constrained["Supt"][0] {
		t.Fatal("employee column must be constrained (join)")
	}
	if !constrained["Supt"][2] {
		t.Fatal("customer column must be constrained (diseqs + head)")
	}
	if constrained["Supt"][1] {
		t.Fatal("department column must be inert")
	}
}

// TestRelevantValues checks the linked-position value computation on
// the CRM φ0 constraint: the customer column's group picks up the
// master cid feed.
func TestRelevantValues(t *testing.T) {
	cust := relation.NewSchema("Cust",
		relation.Attr("cid"), relation.Attr("name"), relation.Attr("cc"),
		relation.Attr("ac"), relation.Attr("phn"))
	supt := suptSchema()
	dcust := relation.NewSchema("DCust", relation.Attr("cid"))
	dm := relation.NewDatabase(dcust)
	dm.MustAdd("DCust", "m1")
	d := relation.NewDatabase(cust, supt)
	d.MustAdd("Supt", "e9", "s", "d9")

	q := cq.New("phi", []query.Term{v("c")},
		[]query.RelAtom{
			query.Atom("Cust", v("c"), v("n"), v("cc"), v("a"), v("p")),
			query.Atom("Supt", v("e"), v("d"), v("c")),
		},
		query.Eq(v("cc"), c("01")))
	vset := cc.NewSet(cc.FromCQ("phi", q, cc.Proj("DCust", 0)))

	rv := computeRelevantValues(qlang.FromCQ(q), vset, d, dm)
	cands := rv.candidatesFor([]varPosition{{Rel: "Supt", Col: 2}})
	has := func(val relation.Value) bool {
		for _, x := range cands {
			if x == val {
				return true
			}
		}
		return false
	}
	if !has("m1") {
		t.Fatalf("master feed missing: %v", cands)
	}
	if !has("d9") {
		t.Fatalf("linked database value missing: %v", cands)
	}
	if has("e9") {
		t.Fatalf("unlinked column value leaked in: %v", cands)
	}
}

// TestRCDPWithReverseConstraint exercises the Section 5 extension: with
// Manage bounded above by an IND into ManageM and below by the reverse
// constraint π(ManageM) ⊆ Manage, partial closure pins Manage to
// exactly the master edges, and the k-hop query over it is complete.
func TestRCDPWithReverseConstraint(t *testing.T) {
	manage := relation.NewSchema("Manage", relation.Attr("a"), relation.Attr("b"))
	managem := relation.NewSchema("ManageM", relation.Attr("a"), relation.Attr("b"))
	dm := relation.NewDatabase(managem)
	dm.MustAdd("ManageM", "e1", "e0")
	dm.MustAdd("ManageM", "e2", "e1")

	revQ := cq.New("q", []query.Term{v("x"), v("y")},
		[]query.RelAtom{query.Atom("Manage", v("x"), v("y"))})
	vset := cc.NewSet(
		cc.NewIND("up", "Manage", []int{0, 1}, 2, cc.Proj("ManageM", 0, 1)),
		cc.ReverseFromCQ("down", cc.Proj("ManageM", 0, 1), revQ),
	)

	// A database missing a master edge is not partially closed at all.
	partial := relation.NewDatabase(manage)
	partial.MustAdd("Manage", "e1", "e0")
	q := qlang.FromCQ(cq.New("Q", []query.Term{v("m")},
		[]query.RelAtom{query.Atom("Manage", v("m"), c("e0"))}))
	if _, err := RCDP(q, partial, dm, vset); err == nil {
		t.Fatal("database below the master lower bound must be rejected")
	}

	// The exactly-pinned database is complete.
	full := partial.Clone()
	full.MustAdd("Manage", "e2", "e1")
	r, err := RCDP(q, full, dm, vset)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete {
		t.Fatalf("pinned Manage must be complete; ext %v", r.Extension)
	}
}
