package core

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cc"
	"repro/internal/mdm"
	"repro/internal/qlang"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/sat"
)

// The witness-determinism golden pins everything a Workers=1 RCDP check
// reports — verdict, Valuations, Disjunct, NewTuple, the sorted
// Extension and the witness Valuation — on two fixed input families, so
// that a rewrite of the valuation search can be shown to visit the same
// valuations in the same order and return byte-identical witnesses.
//
// Regenerate (only when a change is meant to alter the search order):
//
//	go test ./internal/core -run TestRCDPWitnessGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/rcdp_witness.golden")

const goldenPath = "testdata/rcdp_witness.golden"

// goldenCase is one RCDP input of the golden suite. want, when set, is
// the verdict an independent decider gives (sat.ForallExists for the
// reduction family).
type goldenCase struct {
	name     string
	q        qlang.Query
	d, dm    *relation.Database
	v        *cc.Set
	want     *Verdict
	checkWit bool
}

// goldenSatCNF draws the ∀∃3SAT shape of the sat-search workload and the
// relbench sweep: 10 variables, 12 clauses of three random literals.
func goldenSatCNF(rng *rand.Rand) *sat.CNF {
	f := sat.NewCNF(10)
	for i := 0; i < 12; i++ {
		cl := make(sat.Clause, 3)
		for j := range cl {
			l := sat.Literal(rng.Intn(10) + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl[j] = l
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

func goldenCases(t testing.TB) []goldenCase {
	var out []goldenCase
	for seed := int64(1); seed <= 30; seed++ {
		phi := goldenSatCNF(rand.New(rand.NewSource(seed)))
		inst, err := reductions.ForallExistsToRCDP(phi, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := VerdictIncomplete
		if sat.ForallExists(phi, 5) {
			want = VerdictComplete
		}
		out = append(out, goldenCase{
			name: fmt.Sprintf("fe3sat/seed%d", seed),
			q:    inst.Q, d: inst.D, dm: inst.Dm, v: inst.V,
			want: &want,
		})
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := mdm.DefaultConfig()
		cfg.Seed = seed
		cfg.DomesticCustomers = 400
		cfg.Employees = 40
		s := mdm.Generate(cfg)
		v := cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport))
		for _, qc := range []struct {
			name string
			q    qlang.Query
		}{{"Q0", mdm.Q0("908")}, {"Q2", mdm.Q2("e00")}} {
			out = append(out, goldenCase{
				name: fmt.Sprintf("crm400/seed%d/%s", seed, qc.name),
				q:    qc.q, d: s.D, dm: s.Dm, v: v,
				checkWit: true,
			})
		}
	}
	return out
}

// goldenLine renders the pinned fields of a Workers=1 result.
func goldenLine(name string, r *RCDPResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s verdict=%s valuations=%d", name, r.Verdict, r.Valuations)
	if r.Verdict == VerdictIncomplete {
		fmt.Fprintf(&b, " %s", witnessString(r))
	}
	return b.String()
}

// witnessString renders the deterministic witness fields: Disjunct,
// NewTuple, the sorted Extension tuples and the sorted Valuation.
func witnessString(r *RCDPResult) string {
	var ext []string
	for _, rel := range r.Extension.Relations() {
		for _, tu := range r.Extension.Instance(rel).Tuples() {
			ext = append(ext, rel+tu.String())
		}
	}
	sort.Strings(ext)
	vars := make([]string, 0, len(r.Valuation))
	for name := range r.Valuation {
		vars = append(vars, name)
	}
	sort.Strings(vars)
	val := make([]string, len(vars))
	for i, name := range vars {
		val[i] = name + "=" + string(r.Valuation[name])
	}
	return fmt.Sprintf("disjunct=%d new=%s ext=[%s] val={%s}",
		r.Disjunct, r.NewTuple, strings.Join(ext, " "), strings.Join(val, ","))
}

// checkWitness re-verifies an incomplete verdict from first principles:
// D ∪ Δ satisfies V, and the new tuple is an answer on D ∪ Δ but not on D.
func checkWitness(t *testing.T, gc goldenCase, r *RCDPResult) {
	t.Helper()
	ext := gc.d.Union(r.Extension)
	if ok, err := gc.v.Satisfied(ext, gc.dm); err != nil || !ok {
		t.Errorf("%s: D ∪ Δ violates V (ok=%v, err=%v)", gc.name, ok, err)
	}
	has := func(db *relation.Database) bool {
		ans, err := gc.q.Eval(db)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		for _, tu := range ans {
			if tu.Equal(r.NewTuple) {
				return true
			}
		}
		return false
	}
	if has(gc.d) || !has(ext) {
		t.Errorf("%s: new tuple %v is not in Q(D ∪ Δ) \\ Q(D)", gc.name, r.NewTuple)
	}
}

// TestRCDPWitnessGolden runs every golden case at Workers=1 against the
// committed golden file, and at Workers=2 against the Workers=1
// verdict and witness.
func TestRCDPWitnessGolden(t *testing.T) {
	var lines []string
	for _, gc := range goldenCases(t) {
		seq, err := (&Checker{Workers: 1}).RCDPCtx(context.Background(), gc.q, gc.d, gc.dm, gc.v)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if gc.want != nil && seq.Verdict != *gc.want {
			t.Errorf("%s: verdict %s, independent decider says %s", gc.name, seq.Verdict, *gc.want)
		}
		if gc.checkWit && seq.Verdict == VerdictIncomplete {
			checkWitness(t, gc, seq)
		}
		lines = append(lines, goldenLine(gc.name, seq))

		par, err := (&Checker{Workers: 2}).RCDPCtx(context.Background(), gc.q, gc.d, gc.dm, gc.v)
		if err != nil {
			t.Fatalf("%s workers=2: %v", gc.name, err)
		}
		if par.Verdict != seq.Verdict {
			t.Errorf("%s: workers=2 verdict %s, workers=1 %s", gc.name, par.Verdict, seq.Verdict)
		} else if seq.Verdict == VerdictIncomplete {
			if a, b := witnessString(seq), witnessString(par); a != b {
				t.Errorf("%s: workers=2 witness differs:\n  w1: %s\n  w2: %s", gc.name, a, b)
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if string(want) != got {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Errorf("golden line %d differs:\n  want: %s\n  got:  %s", i+1, w, g)
			}
		}
	}
}
