package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/mdm"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/reductions"
	"repro/internal/relation"
	"repro/internal/sat"
	"repro/internal/textq"
)

// The CRM scenario is relgen's CRM-400: `relgen -customers 400
// -employees 40` with every other flag at its default, seed 1 included.
// The data is the same for every benchmark seed, which orders the
// operations instead: a check's cost follows Q0's valuation count,
// and that count moves from 87 to 431 between generator seeds 1–10
// (388 at seed 1), which would swamp any change the benchmark is meant
// to see. Request text is
// built in relgen's forms — relgen's own q0.cq, q2.cq and v.cc lines,
// with upper-case variables — and never by formatting Go-built queries
// or constraints (textq.FormatQuery and FormatConstraints emit
// lower-case variables, which the parser reads back as constants).
const (
	crmCustomers = 400
	crmEmployees = 40
	crmAreaCode  = "908"
	crmEmployee  = "e00"
)

// crmScenario is one generated CRM instance: the Go objects the oracle
// checks and the relgen-form text the requests carry.
type crmScenario struct {
	s *mdm.Scenario
	v *cc.Set

	schemas, masterSchemas, db, master, constraints string
	queries                                         []crmQuery
}

// crmQuery pairs one relgen query file with the Go-built query it
// denotes and the verdict core gives on the Go objects.
type crmQuery struct {
	name string
	text string
	q    qlang.Query
	want string
}

func crmConfig() mdm.Config {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = crmCustomers
	cfg.Employees = crmEmployees
	return cfg
}

// newCRMScenario generates the scenario and its request text; the
// expected verdicts are filled in by crmOracle.
func newCRMScenario() *crmScenario {
	cfg := crmConfig()
	s := mdm.Generate(cfg)
	return &crmScenario{
		s:             s,
		v:             cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport)),
		schemas:       textq.FormatSchemas(mdm.Schemas()),
		masterSchemas: textq.FormatSchemas(mdm.MasterSchemas()),
		db:            textq.FormatDatabase(s.D),
		master:        textq.FormatDatabase(s.Dm),
		constraints: "cc phi0(C, A) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01 <= DCust[0, 2]\n" +
			atMostKText(cfg.MaxSupport),
		queries: []crmQuery{
			{name: "Q0", text: "Q0(C) :- Cust(C, N, CC, A, P), Supt(E, D, C), CC = 01, A = " + crmAreaCode + "\n", q: mdm.Q0(crmAreaCode)},
			{name: "Q2", text: "Q2(C) :- Supt(E, D, C), E = " + crmEmployee + "\n", q: mdm.Q2(crmEmployee)},
		},
	}
}

// atMostKText is relgen's rendering of φ₁: k+1 Supt atoms sharing the
// employee with pairwise distinct customers.
func atMostKText(k int) string {
	var atoms, neq []string
	for i := 0; i <= k; i++ {
		atoms = append(atoms, fmt.Sprintf("Supt(E, D%d, C%d)", i, i))
		for j := i + 1; j <= k; j++ {
			neq = append(neq, fmt.Sprintf("C%d != C%d", i, j))
		}
	}
	return "cc phi1(E) :- " + strings.Join(append(atoms, neq...), ", ") + " <= empty\n"
}

// crmOracle fills in every query's expected verdict from core on the
// Go-built mdm objects, sharing no text with the requests.
func (c *crmScenario) crmOracle() error {
	ck := core.Checker{Workers: 1}
	for i := range c.queries {
		res, err := ck.RCDPCtx(context.Background(), c.queries[i].q, c.s.D, c.s.Dm, c.v)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", c.queries[i].name, err)
		}
		c.queries[i].want = res.Verdict.String()
	}
	return nil
}

// satInstance is one ∀∃3SAT formula, its Theorem 3.6 RCDP instance and
// the inline request text for it. want comes from sat.ForallExists.
type satInstance struct {
	phi  *sat.CNF
	inst *reductions.RCDPInstance
	src  textq.ProblemSource
	want string
	op   *op // the inline /v1/rcdp request
}

// The sat-search instance family: random 3-CNF over 10 variables, 12
// clauses, the first 5 universally quantified (relbench's ∀∃ sweep
// shape). Each set holds satPerVerdict[true] true (complete) and
// satPerVerdict[false] false (incomplete) sentences, so the verdict mix
// is the same for every seed. Complete instances search every
// candidate valuation and cost about the same; incomplete ones stop at
// their first counterexample, anywhere from 1 valuation up. At 2:1 the
// latency median and p90 fall inside the complete instances' mode
// instead of between the two modes, where the seed would move them.
var satPerVerdict = map[bool]int{true: 2 * satIncomplete, false: satIncomplete}

const satIncomplete = 10

const (
	satVars      = 10
	satClauses   = 12
	satUniversal = 5
)

// newSatInstances draws formulas from the seed until it has
// satPerVerdict of each truth value. The set is ordered complete,
// complete, incomplete, repeating, so its first instances — the
// warm-up — cost about the same for every seed.
func newSatInstances(seed int64) ([]*satInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	byVerdict := map[bool][]*satInstance{}
	count := map[bool]int{}
	for draws := 0; count[true] < satPerVerdict[true] || count[false] < satPerVerdict[false]; draws++ {
		if draws > 10000 {
			return nil, fmt.Errorf("sat-search: seed %d gave too few instances of one verdict", seed)
		}
		phi := randomCNF(rng, satVars, satClauses)
		truth := sat.ForallExists(phi, satUniversal)
		if count[truth] == satPerVerdict[truth] {
			continue
		}
		count[truth]++
		inst, err := reductions.ForallExistsToRCDP(phi, satUniversal)
		if err != nil {
			return nil, err
		}
		src, err := instanceText(inst)
		if err != nil {
			return nil, err
		}
		want := core.VerdictIncomplete.String()
		if truth {
			want = core.VerdictComplete.String()
		}
		si := &satInstance{phi: phi, inst: inst, src: src, want: want}
		si.op = satOp(si)
		byVerdict[truth] = append(byVerdict[truth], si)
	}
	var out []*satInstance
	for i := 0; i < satPerVerdict[false]; i++ {
		out = append(out, byVerdict[true][2*i], byVerdict[true][2*i+1], byVerdict[false][i])
	}
	return out, nil
}

func randomCNF(rng *rand.Rand, nVars, nClauses int) *sat.CNF {
	f := sat.NewCNF(nVars)
	for i := 0; i < nClauses; i++ {
		cl := make(sat.Clause, 3)
		for j := range cl {
			l := sat.Literal(rng.Intn(nVars) + 1)
			if rng.Intn(2) == 0 {
				l = -l
			}
			cl[j] = l
		}
		f.Clauses = append(f.Clauses, cl)
	}
	return f
}

// instanceText renders a reduction instance in the textq grammar.
// Facts and schemas carry no variables and use textq's formatters;
// the query and the constraints go through ruleText, which writes
// variables upper-case so that they parse back as variables.
func instanceText(inst *reductions.RCDPInstance) (textq.ProblemSource, error) {
	q, ok := qlang.AsCQ(inst.Q)
	if !ok {
		return textq.ProblemSource{}, fmt.Errorf("reduction query is not a CQ")
	}
	var cons strings.Builder
	for _, c := range inst.V.Constraints {
		body, ok := qlang.AsCQ(c.Q)
		if !ok || c.Reverse || c.P.IsEmptySet() {
			return textq.ProblemSource{}, fmt.Errorf("constraint %s is not an IND", c.Name)
		}
		cols := make([]string, len(c.P.Cols))
		for i, col := range c.P.Cols {
			cols[i] = fmt.Sprint(col)
		}
		fmt.Fprintf(&cons, "cc %s <= %s[%s]\n", ruleText(body), c.P.Rel, strings.Join(cols, ", "))
	}
	master := map[string]*relation.Schema{}
	for _, name := range inst.Dm.Relations() {
		master[name] = inst.Dm.Schema(name)
	}
	return textq.ProblemSource{
		Schemas:       textq.FormatSchemas(inst.Schemas),
		MasterSchemas: textq.FormatSchemas(master),
		DB:            textq.FormatDatabase(inst.D),
		Master:        textq.FormatDatabase(inst.Dm),
		Constraints:   cons.String(),
		Query:         ruleText(q) + "\n",
	}, nil
}

// ruleText renders one "Name(head) :- body" rule with upper-cased
// variables and single-quoted constants.
func ruleText(q *cq.CQ) string {
	term := func(t query.Term) string {
		if t.IsVar {
			return strings.ToUpper(t.Name)
		}
		return "'" + string(t.Val) + "'"
	}
	terms := func(ts []query.Term) string {
		parts := make([]string, len(ts))
		for i, t := range ts {
			parts[i] = term(t)
		}
		return strings.Join(parts, ", ")
	}
	var body []string
	for _, a := range q.Atoms {
		body = append(body, a.Rel+"("+terms(a.Args)+")")
	}
	for _, e := range q.Conds {
		op := " = "
		if e.Neg {
			op = " != "
		}
		body = append(body, term(e.L)+op+term(e.R))
	}
	return q.Name + "(" + terms(q.Head) + ") :- " + strings.Join(body, ", ")
}
