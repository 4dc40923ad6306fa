package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/cq"
	"repro/internal/cq/cqtest"
	"repro/internal/mdm"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// These tests cross-validate the exact deciders against the brute-force
// bounded search of bounded.go. For monotone languages Proposition 3.3
// bounds counterexamples by |T_Q| tuples over Adom, so a bounded search
// with MaxAdd ≥ |T_Q| and a fresh pool covering the tableau variables
// is an exact oracle — an independent implementation of the semantics
// ("enumerate extensions, re-evaluate") against which the valuation-
// based decider is checked on enumerated random instances.

// microSchema: R(a, b) with infinite domains and F(p) over {0,1}.
func microSchema() (*relation.Schema, *relation.Schema) {
	return relation.NewSchema("R", relation.Attr("a"), relation.Attr("b")),
		relation.NewSchema("F", relation.FinAttr("p", "0", "1"))
}

// randomMicroDB draws a database over values {a, b} ∪ {0,1}.
func randomMicroDB(rng *rand.Rand) *relation.Database {
	r, f := microSchema()
	d := relation.NewDatabase(r, f)
	vals := []string{"a", "b"}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		d.MustAdd("R", vals[rng.Intn(2)], vals[rng.Intn(2)])
	}
	if rng.Intn(2) == 0 {
		d.MustAdd("F", []string{"0", "1"}[rng.Intn(2)])
	}
	return d
}

// microQueries is a pool of CQ/UCQ queries over the micro schema.
func microQueries() []qlang.Query {
	r := func(a, b query.Term) query.RelAtom { return query.Atom("R", a, b) }
	return []qlang.Query{
		qlang.FromCQ(cq.New("q1", []query.Term{v("x")}, []query.RelAtom{r(v("x"), v("y"))})),
		qlang.FromCQ(cq.New("q2", []query.Term{v("x")}, []query.RelAtom{r(v("x"), v("x"))})),
		qlang.FromCQ(cq.New("q3", []query.Term{v("x"), v("z")},
			[]query.RelAtom{r(v("x"), v("y")), r(v("y"), v("z"))})),
		qlang.FromCQ(cq.New("q4", []query.Term{v("x")},
			[]query.RelAtom{r(v("x"), v("y"))}, query.Neq(v("x"), v("y")))),
		qlang.FromCQ(cq.New("q5", []query.Term{v("p")},
			[]query.RelAtom{query.Atom("F", v("p"))})),
		qlang.FromCQ(cq.New("q6", []query.Term{v("x")},
			[]query.RelAtom{r(v("x"), v("y"))}, query.Eq(v("y"), c("a")))),
		qlang.FromUCQ(cq.Union("u1",
			cq.New("u1a", []query.Term{v("x")}, []query.RelAtom{r(v("x"), v("y"))}, query.Eq(v("y"), c("a"))),
			cq.New("u1b", []query.Term{v("x")}, []query.RelAtom{r(v("y"), v("x"))}, query.Eq(v("y"), c("b"))),
		)),
	}
}

// microConstraintSets is a pool of constraint sets over the micro
// schema, paired with master data.
func microConstraintSets() []struct {
	name string
	v    *cc.Set
	dm   *relation.Database
} {
	mkDM := func(vals ...string) *relation.Database {
		m := relation.NewDatabase(relation.NewSchema("M", relation.Attr("x")))
		for _, x := range vals {
			m.MustAdd("M", x)
		}
		return m
	}
	fd := &cc.FD{Name: "fd", Rel: "R", From: []int{0}, To: []int{1}}
	selfDenial := &cc.Denial{
		Name:  "noSelf",
		Atoms: []query.RelAtom{query.Atom("R", v("x"), v("y"))},
		Conds: []query.EqAtom{query.Eq(v("x"), v("y"))},
	}
	return []struct {
		name string
		v    *cc.Set
		dm   *relation.Database
	}{
		{"empty", cc.NewSet(), mkDM()},
		{"ind-col0", cc.NewSet(cc.NewIND("i0", "R", []int{0}, 2, cc.Proj("M", 0))), mkDM("a", "b")},
		{"ind-col0-small", cc.NewSet(cc.NewIND("i0", "R", []int{0}, 2, cc.Proj("M", 0))), mkDM("a")},
		{"fd", cc.NewSet(fd.ToCCs(2)...), mkDM()},
		{"denial-self", cc.NewSet(selfDenial.ToCC()), mkDM()},
		{"atmost1", cc.NewSet(cc.AtMostK("k1", "R", 2, []int{0}, 1, 1)), mkDM()},
		{"fd+ind", func() *cc.Set {
			s := cc.NewSet(fd.ToCCs(2)...)
			s.Add(cc.NewIND("i0", "R", []int{0}, 2, cc.Proj("M", 0)))
			return s
		}(), mkDM("a", "b")},
	}
}

// TestRCDPAgainstOracle compares the exact RCDP decider with the
// bounded brute-force oracle on enumerated random instances.
func TestRCDPAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	queries := microQueries()
	sets := microConstraintSets()
	opts := BoundedOpts{MaxAdd: 2, FreshValues: 4}

	trials := 0
	for trial := 0; trial < 400; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		d := randomMicroDB(rng)
		if ok, err := cs.v.Satisfied(d, cs.dm); err != nil || !ok {
			continue // not partially closed; RCDP precondition fails
		}
		trials++
		exact, err := RCDP(q, d, cs.dm, cs.v)
		if err != nil {
			t.Fatalf("trial %d (%s): %v", trial, cs.name, err)
		}
		oracle, err := BoundedRCDP(q, d, cs.dm, cs.v, opts)
		if err != nil {
			t.Fatalf("trial %d (%s): oracle: %v", trial, cs.name, err)
		}
		if exact.Complete != !oracle.Incomplete {
			t.Fatalf("trial %d (%s, query %s): exact complete=%v but oracle incomplete=%v\nD:\n%v\nexact ext: %v\noracle ext: %v",
				trial, cs.name, q, exact.Complete, oracle.Incomplete, d, exact.Extension, oracle.Extension)
		}
	}
	if trials < 150 {
		t.Fatalf("too few partially closed trials: %d", trials)
	}
}

// TestRCQPINDsAgainstOracle cross-validates the Proposition 4.3 decider:
// when it answers yes with a witness, the witness must survive the
// bounded oracle; when it answers no, the bounded witness search must
// fail too.
func TestRCQPINDsAgainstOracle(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	opts := BoundedOpts{MaxAdd: 2, FreshValues: 3}

	queries := microQueries()
	for _, cs := range microConstraintSets() {
		if !cs.v.AllINDs() {
			continue
		}
		for _, q := range queries {
			res, err := RCQP(q, cs.dm, cs.v, schemas)
			if err != nil {
				t.Fatalf("%s/%s: %v", cs.name, q, err)
			}
			switch res.Status {
			case Yes:
				if res.Witness != nil {
					or, err := BoundedRCDP(q, res.Witness, cs.dm, cs.v, opts)
					if err != nil {
						t.Fatalf("%s/%s: %v", cs.name, q, err)
					}
					if or.Incomplete {
						t.Fatalf("%s/%s: witness rejected by oracle; ext %v", cs.name, q, or.Extension)
					}
				}
			case No:
				br, err := BoundedRCQP(q, cs.dm, cs.v, schemas, 2, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", cs.name, q, err)
				}
				if br.Found {
					t.Fatalf("%s/%s: decider says no but oracle found witness\n%v", cs.name, q, br.Witness)
				}
			default:
				t.Fatalf("%s/%s: IND path must be exact, got unknown", cs.name, q)
			}
		}
	}
}

// TestRCQPGeneralAgainstOracle checks the certificate search against the
// bounded witness search for the non-IND constraint pools: whenever the
// bounded oracle finds a small witness, the certificate search must
// answer yes, and vice versa every yes witness must survive the oracle.
func TestRCQPGeneralAgainstOracle(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	opts := BoundedOpts{MaxAdd: 2, FreshValues: 3}

	for _, cs := range microConstraintSets() {
		if cs.v.AllINDs() {
			continue
		}
		for _, q := range microQueries() {
			res, err := RCQP(q, cs.dm, cs.v, schemas)
			if err != nil {
				t.Fatalf("%s/%s: %v", cs.name, q, err)
			}
			if res.Status == Yes && res.Witness != nil {
				or, err := BoundedRCDP(q, res.Witness, cs.dm, cs.v, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", cs.name, q, err)
				}
				if or.Incomplete {
					t.Fatalf("%s/%s: yes-witness rejected by oracle (ext %v)", cs.name, q, or.Extension)
				}
			}
			if res.Status != Yes {
				br, err := BoundedRCQP(q, cs.dm, cs.v, schemas, 1, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", cs.name, q, err)
				}
				if br.Found {
					t.Fatalf("%s/%s: decider says %v but bounded search found 1-tuple witness\n%v",
						cs.name, q, res.Status, br.Witness)
				}
			}
		}
	}
}

// The brute-force decider below shares no evaluation code with the
// checker: queries and constraint queries are evaluated by the naive
// evaluator of package cqtest (nested loops over Instance.Tuples), the
// master side by a plain projection of Dm, and extensions are
// enumerated as explicit tuple sets rather than valuations.

// naiveDisjuncts returns the CQ disjuncts of a CQ or UCQ query.
func naiveDisjuncts(t *testing.T, q qlang.Query) []*cq.CQ {
	t.Helper()
	if c, ok := qlang.AsCQ(q); ok {
		return []*cq.CQ{c}
	}
	if u, ok := qlang.AsUCQ(q); ok {
		return u.Disjuncts
	}
	t.Fatalf("no naive evaluation for %v query %s", q.Lang(), q)
	return nil
}

// naiveAnswers returns Q(db) as a key set, evaluated naively.
func naiveAnswers(t *testing.T, q qlang.Query, db *relation.Database) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for _, c := range naiveDisjuncts(t, q) {
		for _, tu := range cqtest.Eval(c, db) {
			out[tu.Key()] = true
		}
	}
	return out
}

// naiveSatisfied judges (db, dm) ⊨ V naively.
func naiveSatisfied(t *testing.T, v *cc.Set, db, dm *relation.Database) bool {
	t.Helper()
	for _, c := range v.Constraints {
		if c.Reverse {
			t.Fatalf("%s: no naive check for reverse constraints", c.Name)
		}
		rhs := make(map[string]bool)
		if !c.P.IsEmptySet() {
			for _, tu := range dm.Instance(c.P.Rel).Tuples() {
				rhs[tu.Project(c.P.Cols).Key()] = true
			}
		}
		for k := range naiveAnswers(t, c.Q, db) {
			if !rhs[k] {
				return false
			}
		}
	}
	return true
}

// bruteRCDP decides whether some extension Δ of at most maxAdd tuples
// not in D, over the values of D, Dm, Q and V plus fresh new values
// (finite-domain attributes over their domains), keeps (D ∪ Δ, Dm) ⊨ V
// and adds an answer to Q. For monotone Q and V, Proposition 3.3 makes
// this exact once maxAdd ≥ |T_Q| and fresh covers the query's
// variables; with smaller bounds it explores what BoundedRCDP does.
// Monotonicity also lets a tuple that violates V on its own, or a Δ
// that does, be dropped from every larger Δ.
func bruteRCDP(t *testing.T, q qlang.Query, d, dm *relation.Database, v *cc.Set, maxAdd, fresh int) bool {
	t.Helper()
	seen := make(map[relation.Value]bool)
	for _, db := range []*relation.Database{d, dm} {
		for _, rel := range db.Relations() {
			for _, tu := range db.Instance(rel).Tuples() {
				for _, val := range tu {
					seen[val] = true
				}
			}
		}
	}
	for _, val := range append(q.Constants(), v.Constants()...) {
		seen[val] = true
	}
	vals := relation.SortedValues(seen)
	for i := 1; fresh > 0; i++ {
		if nv := relation.Value(fmt.Sprintf("new%d", i)); !seen[nv] {
			vals = append(vals, nv)
			fresh--
		}
	}
	type cand struct {
		rel string
		tup relation.Tuple
	}
	var cands []cand
	for _, rel := range d.Relations() {
		s := d.Schema(rel)
		var gen func(tup relation.Tuple)
		gen = func(tup relation.Tuple) {
			if len(tup) == s.Arity() {
				if !d.Contains(rel, tup) {
					cands = append(cands, cand{rel, tup.Clone()})
				}
				return
			}
			dom := vals
			if a := s.Attrs[len(tup)]; a.Domain.Kind == relation.Finite {
				dom = a.Domain.Values
			}
			for _, val := range dom {
				gen(append(tup, val))
			}
		}
		gen(nil)
	}
	with := func(db *relation.Database, c cand) *relation.Database {
		next := db.Clone()
		if err := next.Add(c.rel, c.tup); err != nil {
			t.Fatal(err)
		}
		return next
	}
	cands = slices.DeleteFunc(cands, func(c cand) bool { return !naiveSatisfied(t, v, with(d, c), dm) })
	base := naiveAnswers(t, q, d)
	var rec func(start int, ext *relation.Database, added int) bool
	rec = func(start int, ext *relation.Database, added int) bool {
		for i := start; i < len(cands); i++ {
			next := with(ext, cands[i])
			if !naiveSatisfied(t, v, next, dm) {
				continue
			}
			for k := range naiveAnswers(t, q, next) {
				if !base[k] {
					return true
				}
			}
			if added+1 < maxAdd && rec(i+1, next, added+1) {
				return true
			}
		}
		return false
	}
	return rec(0, d, 0)
}

// certifyRCDPWitness checks an incompleteness witness naively: D ∪ Δ
// is partially closed and NewTuple is an answer over D ∪ Δ but not
// over D.
func certifyRCDPWitness(t *testing.T, q qlang.Query, d, dm *relation.Database, v *cc.Set, ext *relation.Database, newTuple relation.Tuple) {
	t.Helper()
	union := d.Union(ext)
	if !naiveSatisfied(t, v, union, dm) {
		t.Fatalf("%s: witness extension %v is not partially closed", q, ext)
	}
	if k := newTuple.Key(); !naiveAnswers(t, q, union)[k] || naiveAnswers(t, q, d)[k] {
		t.Fatalf("%s: witness answer %v is not new over D ∪ %v", q, newTuple, ext)
	}
}

// microBounds returns |T_Q| and the variable count of the query's
// largest disjunct: the extension size and fresh pool that make
// bruteRCDP exact.
func microBounds(t *testing.T, q qlang.Query) (atoms, vars int) {
	for _, c := range naiveDisjuncts(t, q) {
		atoms, vars = max(atoms, len(c.Atoms)), max(vars, len(c.Vars()))
	}
	return atoms, vars
}

// checkRCDPAgainstBrute draws partially closed random micro instances
// from seed and holds RCDPCtx at each worker count to the brute-force
// decider's verdict, and every witness it returns to naive
// certification.
func checkRCDPAgainstBrute(t *testing.T, seed int64, workers ...int) {
	queries := microQueries()
	sets := microConstraintSets()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	trials, incomplete := 0, 0
	for trial := 0; trial < 400 && trials < 150; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		d := randomMicroDB(rng)
		if !naiveSatisfied(t, cs.v, d, cs.dm) {
			continue
		}
		trials++
		atoms, vars := microBounds(t, q)
		want := bruteRCDP(t, q, d, cs.dm, cs.v, atoms, vars)
		if want {
			incomplete++
		}
		for _, w := range workers {
			res, err := (&Checker{Workers: w}).RCDPCtx(ctx, q, d, cs.dm, cs.v)
			if err != nil {
				t.Fatalf("workers=%d trial %d (%s/%s): %v", w, trial, cs.name, q, err)
			}
			if res.Complete == want {
				t.Fatalf("workers=%d trial %d (%s/%s): RCDPCtx complete=%v, brute force incomplete=%v\nD:\n%v",
					w, trial, cs.name, q, res.Complete, want, d)
			}
			if !res.Complete {
				certifyRCDPWitness(t, q, d, cs.dm, cs.v, res.Extension, res.NewTuple)
			}
		}
	}
	if trials < 100 || incomplete == 0 || incomplete == trials {
		t.Fatalf("weak sample: %d partially closed trials, %d incomplete", trials, incomplete)
	}
}

// TestRCDPInternedMatchesLegacy holds the id-based RCDP checker at
// Workers 1 and 2 to the brute-force decider, whose evaluation runs on
// value tuples and Bindings alone.
func TestRCDPInternedMatchesLegacy(t *testing.T) { checkRCDPAgainstBrute(t, 73, 1, 2) }

// TestRCDPIndexedMatchesNoindex holds the RCDP checker, whose joins
// probe posting lists, at Workers 1 and 8 to the brute-force decider,
// whose naive evaluation uses no index.
func TestRCDPIndexedMatchesNoindex(t *testing.T) { checkRCDPAgainstBrute(t, 31, 1, 8) }

// TestBoundedRCDPIndexedMatchesNoindex holds BoundedRCDP at Workers 1
// and 8 to the brute-force decider run with the same bounds (at most
// two added tuples, two fresh values), and every extension it reports
// to naive certification.
func TestBoundedRCDPIndexedMatchesNoindex(t *testing.T) {
	queries := microQueries()
	sets := microConstraintSets()
	rng := rand.New(rand.NewSource(59))
	trials := 0
	for trial := 0; trial < 200 && trials < 60; trial++ {
		q := queries[rng.Intn(len(queries))]
		cs := sets[rng.Intn(len(sets))]
		d := randomMicroDB(rng)
		if !naiveSatisfied(t, cs.v, d, cs.dm) {
			continue
		}
		trials++
		want := bruteRCDP(t, q, d, cs.dm, cs.v, 2, 2)
		for _, workers := range []int{1, 8} {
			res, err := BoundedRCDP(q, d, cs.dm, cs.v, BoundedOpts{MaxAdd: 2, FreshValues: 2, Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d trial %d (%s/%s): %v", workers, trial, cs.name, q, err)
			}
			if res.Incomplete != want {
				t.Fatalf("workers=%d trial %d (%s/%s): bounded incomplete=%v, brute force %v\nD:\n%v",
					workers, trial, cs.name, q, res.Incomplete, want, d)
			}
			if res.Incomplete {
				certifyRCDPWitness(t, q, d, cs.dm, cs.v, res.Extension, res.NewTuple)
			}
		}
	}
	if trials < 30 {
		t.Fatalf("too few partially closed trials: %d", trials)
	}
}

// TestRCQPIndexedMatchesNoindex runs RCQP over every micro query and
// constraint set at Workers 1 and 8: the two must agree exactly, and
// every yes-witness must be partially closed and complete under the
// brute-force decider.
func TestRCQPIndexedMatchesNoindex(t *testing.T) {
	r, f := microSchema()
	schemas := map[string]*relation.Schema{"R": r, "F": f}
	witnesses := 0
	for _, cs := range microConstraintSets() {
		for _, q := range microQueries() {
			var results [2]*RCQPResult
			for i, workers := range []int{1, 8} {
				res, err := (&QPChecker{Checker: Checker{Workers: workers}}).RCQP(q, cs.dm, cs.v, schemas)
				if err != nil {
					t.Fatalf("workers=%d %s/%s: %v", workers, cs.name, q, err)
				}
				results[i] = res
			}
			seq, par := results[0], results[1]
			if seq.Status != par.Status || seq.Method != par.Method || seq.Detail != par.Detail ||
				seq.Candidates != par.Candidates || (seq.Witness == nil) != (par.Witness == nil) ||
				(seq.Witness != nil && !seq.Witness.Equal(par.Witness)) {
				t.Fatalf("%s/%s: workers disagree\nseq: %+v\npar: %+v", cs.name, q, seq, par)
			}
			if seq.Status != Yes || seq.Witness == nil {
				continue
			}
			witnesses++
			atoms, vars := microBounds(t, q)
			if !naiveSatisfied(t, cs.v, seq.Witness, cs.dm) || bruteRCDP(t, q, seq.Witness, cs.dm, cs.v, atoms, vars) {
				t.Fatalf("%s/%s: yes-witness is not a partially closed complete database:\n%v", cs.name, q, seq.Witness)
			}
		}
	}
	if witnesses == 0 {
		t.Fatal("no yes-witness to certify")
	}
}

// TestCRMIndexedMatchesNoindex runs the CRM scenario of the benchmark
// at two completeness levels, where posting lists serve the joins, at
// Workers 1 and 8: the two must agree, and each incompleteness witness
// must survive naive certification.
func TestCRMIndexedMatchesNoindex(t *testing.T) {
	certified := 0
	for _, completeness := range []float64{1.0, 0.8} {
		cfg := mdm.DefaultConfig()
		cfg.DomesticCustomers = 60
		cfg.Employees = 6
		cfg.Completeness = completeness
		s := mdm.Generate(cfg)
		v := mdmSet(cfg)
		q := mdm.Q0("908")
		seq, err := (&Checker{Workers: 1}).RCDPCtx(context.Background(), q, s.D, s.Dm, v)
		if err != nil {
			t.Fatal(err)
		}
		par, err := (&Checker{Workers: 8}).RCDPCtx(context.Background(), q, s.D, s.Dm, v)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRCDP(seq, par) {
			t.Fatalf("completeness=%.1f: workers disagree\nseq: %+v\npar: %+v", completeness, seq, par)
		}
		if !seq.Complete {
			certifyRCDPWitness(t, q, s.D, s.Dm, v, seq.Extension, seq.NewTuple)
			certified++
		}
	}
	if certified == 0 {
		t.Fatal("no incompleteness witness to certify")
	}
}

// TestCRMInternedMatchesLegacy checks that the storage's row order
// never shows: the CRM check over copies of D and Dm with relations
// and tuples inserted in shuffled order — so rows, ranks' row numbers
// and posting containers all differ — yields the same verdict and
// witness, and at Workers=1 the same BudgetStats.
func TestCRMInternedMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for _, completeness := range []float64{1.0, 0.8} {
		cfg := mdm.DefaultConfig()
		cfg.DomesticCustomers = 60
		cfg.Employees = 6
		cfg.Completeness = completeness
		s := mdm.Generate(cfg)
		v := mdmSet(cfg)
		q := mdm.Q0("908")
		for _, workers := range []int{1, 8} {
			ck := &Checker{Workers: workers}
			want, err := ck.RCDPCtx(context.Background(), q, s.D, s.Dm, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ck.RCDPCtx(context.Background(), q, shuffledCopy(rng, s.D), shuffledCopy(rng, s.Dm), mdmSet(cfg))
			if err != nil {
				t.Fatal(err)
			}
			if !sameRCDP(got, want) {
				t.Fatalf("completeness=%.1f workers=%d: shuffled storage changes the result\nshuffled: %+v\nas built: %+v",
					completeness, workers, got, want)
			}
			if workers == 1 && (got.Stats.Valuations != want.Stats.Valuations || got.Stats.JoinRows != want.Stats.JoinRows ||
				got.Stats.Tuples != want.Stats.Tuples) {
				t.Fatalf("completeness=%.1f: shuffled storage changes the work: %+v vs %+v", completeness, got.Stats, want.Stats)
			}
		}
	}
}
