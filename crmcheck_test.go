package repro

import (
	"context"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/mdm"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/textq"
)

// crmFreshD is the per-request shape of a catalog-backed relserve
// check on relgen's CRM-400 (400 domestic customers, 40 employees,
// defaults otherwise): the catalog holds the schemas, Dm and V, and
// every request carries D as fact text, so each check parses a fresh D
// and then runs RCDP against it.
type crmFreshD struct {
	schemas map[string]*relation.Schema
	dm      *relation.Database
	v       *cc.Set
	db      string
	q0, q2  qlang.Query
}

func newCRMFreshD() *crmFreshD {
	cfg := mdm.DefaultConfig()
	cfg.DomesticCustomers = 400
	cfg.Employees = 40
	s := mdm.Generate(cfg)
	return &crmFreshD{
		schemas: s.Schemas,
		dm:      s.Dm,
		v:       cc.NewSet(mdm.Phi0(), mdm.Phi1(cfg.MaxSupport)),
		db:      textq.FormatDatabase(s.D),
		q0:      mdm.Q0("908"),
		q2:      mdm.Q2("e00"),
	}
}

// check parses D from the fact text and runs one Workers=1 RCDP check
// of q, the work of one request after decoding.
func (c *crmFreshD) check(q qlang.Query) (*core.RCDPResult, error) {
	d, err := textq.ParseFacts(c.db, c.schemas)
	if err != nil {
		return nil, err
	}
	ck := core.Checker{Workers: 1}
	return ck.RCDPCtx(context.Background(), q, d, c.dm, c.v)
}

// maxAllocsPerCRMCheck bounds the allocations of one server-shaped
// CRM-400 Q0 check (fact parsing plus the Workers=1 check; ~1,230 now).
// Parsing allocates no term, tuple or value per fact, and each
// candidate valuation's Δ is checked by a delta checker prepared once
// per check in a recycled fragment, so an allocation per fact or per
// checked valuation creeping back in overshoots the bound.
const maxAllocsPerCRMCheck = 1600

// TestCRMCheckFreshDAllocs pins the allocations of the server-shaped
// CRM-400 Q0 check.
func TestCRMCheckFreshDAllocs(t *testing.T) {
	c := newCRMFreshD()
	check := func() {
		if r, err := c.check(c.q0); err != nil || r.Verdict == core.VerdictUnknown {
			t.Fatalf("verdict %v, err %v", r, err)
		}
	}
	check() // warm the compiled-query and dictionary caches
	got := testing.AllocsPerRun(3, check)
	t.Logf("%.0f allocs per check", got)
	if got > maxAllocsPerCRMCheck {
		t.Errorf("%.0f allocs per check, want ≤ %d", got, maxAllocsPerCRMCheck)
	}
}
