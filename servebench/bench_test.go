package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mdm"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/textq"
)

// check runs core at Workers=1 and returns the verdict and valuation
// count, which pin the problem a text denotes.
func check(t *testing.T, q qlang.Query, d, dm *relation.Database, v *cc.Set) (string, int) {
	t.Helper()
	ck := core.Checker{Workers: 1}
	res, err := ck.RCDPCtx(context.Background(), q, d, dm, v)
	if err != nil {
		t.Fatal(err)
	}
	return res.Verdict.String(), res.Valuations
}

// TestCRMTextMatchesGoObjects pins crm-check's and crm-cluster's
// request text to the Go-built scenario the oracle checks: the parsed
// databases hold the same tuples, and Q0 and Q2 get the same verdict
// after the same number of valuations.
func TestCRMTextMatchesGoObjects(t *testing.T) {
	{
		c := newCRMScenario()
		if err := c.crmOracle(); err != nil {
			t.Fatal(err)
		}
		for _, q := range c.queries {
			p, err := textq.ParseProblem(textq.ProblemSource{
				Schemas: c.schemas, MasterSchemas: c.masterSchemas, DB: c.db,
				Master: c.master, Constraints: c.constraints, Query: q.text,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sortedTuples(p.D), sortedTuples(c.s.D)) || !reflect.DeepEqual(sortedTuples(p.Dm), sortedTuples(c.s.Dm)) {
				t.Fatal("parsed databases differ from the Go-built scenario")
			}
			gotV, gotN := check(t, p.Q, p.D, p.Dm, p.V)
			wantV, wantN := check(t, q.q, c.s.D, c.s.Dm, c.v)
			if gotV != wantV || gotN != wantN || gotV != q.want {
				t.Errorf("%s: text gives %s after %d valuations, Go objects %s after %d (oracle %s)",
					q.name, gotV, gotN, wantV, wantN, q.want)
			}
		}
	}
}

// TestSatTextMatchesGoObjects pins sat-search's inline request text to
// the reduction instances: same verdict and valuation count as the
// Go-built instance, and the verdict sat.ForallExists predicts.
func TestSatTextMatchesGoObjects(t *testing.T) {
	insts, err := newSatInstances(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, si := range insts {
		p, err := textq.ParseProblem(si.src)
		if err != nil {
			t.Fatal(err)
		}
		gotV, gotN := check(t, p.Q, p.D, p.Dm, p.V)
		wantV, wantN := check(t, si.inst.Q, si.inst.D, si.inst.Dm, si.inst.V)
		truth := sat.ForallExists(si.phi, satUniversal)
		if gotV != wantV || gotN != wantN || (gotV == "complete") != truth || gotV != si.want {
			t.Errorf("instance %d: text gives %s after %d valuations, Go objects %s after %d, ∀∃ = %v",
				i, gotV, gotN, wantV, wantN, truth)
		}
		seen[gotV]++
	}
	if seen["complete"] != satPerVerdict[true] || seen["incomplete"] != satPerVerdict[false] {
		t.Errorf("verdict mix %v, want %v", seen, satPerVerdict)
	}
}

// TestFormatQueryRoundTripLogged records the textq defect the request
// builders avoid: FormatQuery writes Go-built variables lower-case, so
// the parser reads them back as constants and the check answers a
// different question. It logs rather than asserts, so a fix to textq
// does not fail the benchmark.
func TestFormatQueryRoundTripLogged(t *testing.T) {
	c := newCRMScenario()
	src, err := textq.FormatQuery(mdm.Q0(crmAreaCode))
	if err != nil {
		t.Fatal(err)
	}
	q, err := textq.ParseQuery(src, mdm.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	gotV, gotN := check(t, q, c.s.D, c.s.Dm, c.v)
	wantV, wantN := check(t, mdm.Q0(crmAreaCode), c.s.D, c.s.Dm, c.v)
	t.Logf("mdm.Q0 on CRM-400: %s after %d valuations; after FormatQuery/ParseQuery: %s after %d (%q)",
		wantV, wantN, gotV, gotN, src)
}

// bounds reads the end-to-end bounds from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// TestSensitivity shows the benchmark can fail: busy work added inside
// every backend handler call must move server.handle_ms and crm-check's
// check_p50_ms past their bounds, while sat-search's check_p50_ms, whose
// checks take tens of milliseconds, stays within its bound. Each
// comparison is the median ratio over alternating pairs of runs, which
// keeps the machine's own drift from deciding it.
func TestSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark ten times")
	}
	const delay = 3 * time.Millisecond
	bound := bounds(t)["check_p50_ms"]
	measure := func(workload, name string, trace bool, d time.Duration) float64 {
		res, err := run(runConfig{workload: workload, seed: 1, seconds: 4, trace: trace, delay: d,
			spans: t.TempDir() + "/spans.jsonl"})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s: %d of %d operations failed", workload, res.Failed, res.Attempted)
		}
		return res.Metrics[name].Value
	}
	moved := func(workload, name string, trace bool, pairs int) float64 {
		var ratios []float64
		for i := 0; i < pairs; i++ {
			var base, slow float64
			if i%2 == 0 {
				base, slow = measure(workload, name, trace, 0), measure(workload, name, trace, delay)
			} else {
				slow, base = measure(workload, name, trace, delay), measure(workload, name, trace, 0)
			}
			t.Logf("%s %s: %.3f -> %.3f with %v added per handler call", workload, name, base, slow, delay)
			ratios = append(ratios, slow/base-1)
		}
		sort.Float64s(ratios)
		return ratios[len(ratios)/2]
	}
	if r := moved("crm-check", "server.handle_ms", true, 1); r <= bound {
		t.Errorf("crm-check server.handle_ms moved %.1f%%, want more than the %.0f%% bound", 100*r, 100*bound)
	}
	if r := moved("crm-check", "check_p50_ms", false, 1); r <= bound {
		t.Errorf("crm-check check_p50_ms moved %.1f%%, want more than the %.0f%% bound", 100*r, 100*bound)
	}
	if r := moved("sat-search", "check_p50_ms", false, 3); r > bound {
		t.Errorf("sat-search check_p50_ms moved %.1f%%, want within the %.0f%% bound", 100*r, 100*bound)
	}
}

// sortedTuples lists an instance's tuples as sorted strings, for
// comparing a parsed database with a Go-built one.
func sortedTuples(d *relation.Database) []string {
	var out []string
	for _, name := range d.Relations() {
		for _, t := range d.Instance(name).Tuples() {
			out = append(out, name+fmt.Sprint(t))
		}
	}
	sort.Strings(out)
	return out
}
