package textq

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/mdm"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/sat"
)

// Go-built queries and constraints use lower-case variable names, which
// the parser would read back as constants. These tests pin that
// FormatQuery/FormatConstraints text denotes the same problem: a
// Workers=1 RCDP check on the re-parsed query and constraints gives the
// same verdict after the same number of valuations.

// roundTrip formats and re-parses a query and its constraints.
func roundTrip(t *testing.T, q qlang.Query, v *cc.Set, schemas map[string]*relation.Schema, dm *relation.Database) (qlang.Query, *cc.Set) {
	t.Helper()
	qsrc, err := FormatQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := ParseQuery(qsrc, schemas)
	if err != nil {
		t.Fatalf("re-parse %q: %v", qsrc, err)
	}
	vsrc, err := FormatConstraints(v)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := ParseConstraints(vsrc, schemas, dm)
	if err != nil {
		t.Fatalf("re-parse %q: %v", vsrc, err)
	}
	return q2, v2
}

func rcdpAtOne(t *testing.T, q qlang.Query, d, dm *relation.Database, v *cc.Set) (core.Verdict, int) {
	t.Helper()
	r, err := (&core.Checker{Workers: 1}).RCDPCtx(context.Background(), q, d, dm, v)
	if err != nil {
		t.Fatal(err)
	}
	return r.Verdict, r.Valuations
}

func schemaMap(d *relation.Database) map[string]*relation.Schema {
	out := map[string]*relation.Schema{}
	for _, rel := range d.Relations() {
		out[rel] = d.Schema(rel)
	}
	return out
}

func TestFormatRoundTripKeepsRCDP(t *testing.T) {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 400
	cfg.Employees = 40
	s := mdm.Generate(cfg)
	crmV := cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport))

	phi := sat.NewCNF(4)
	phi.Clauses = []sat.Clause{{1, -2, 3}, {-1, 2, 4}, {2, -3, -4}}
	fe, err := reductions.ForallExistsToRCDP(phi, 2)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		q     qlang.Query
		d, dm *relation.Database
		v     *cc.Set
	}{
		{"mdm.Q0", mdm.Q0("908"), s.D, s.Dm, crmV},
		{"forall-exists", fe.Q, fe.D, fe.Dm, fe.V},
	} {
		q2, v2 := roundTrip(t, tc.q, tc.v, schemaMap(tc.d), tc.dm)
		wantV, wantN := rcdpAtOne(t, tc.q, tc.d, tc.dm, tc.v)
		gotV, gotN := rcdpAtOne(t, q2, tc.d, tc.dm, v2)
		if gotV != wantV || gotN != wantN {
			t.Errorf("%s: %s after %d valuations, after format/parse %s after %d", tc.name, wantV, wantN, gotV, gotN)
		}
	}
}

// TestFormatVarNames pins the renaming: parser-form names are kept,
// others are upper-cased without colliding with a kept name, and the
// head, body and (in)equalities agree.
func TestFormatVarNames(t *testing.T) {
	x, bigX, y, w := query.Var("x"), query.Var("X"), query.Var("_y"), query.Var("1w")
	q := cq.New("Q", []query.Term{x, bigX},
		[]query.RelAtom{query.Atom("Supt", x, bigX, y), query.Atom("Supt", w, y, x)},
		query.Neq(x, w), query.Eq(y, query.C("a")))
	src, err := FormatQuery(qlang.FromCQ(q))
	if err != nil {
		t.Fatal(err)
	}
	want := "Q(X_2, X) :- Supt(X_2, X, _y), Supt(V1w, _y, X_2), X_2 != V1w, _y = 'a'\n"
	if src != want {
		t.Fatalf("FormatQuery = %q, want %q", src, want)
	}
	back, err := ParseQuery(src, mustSchemas(t))
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := FormatQuery(back); again != src {
		t.Fatalf("not a fixed point: %q then %q", src, again)
	}
	if strings.Contains(src, "x") {
		t.Fatalf("lower-case variable left in %q", src)
	}
}
