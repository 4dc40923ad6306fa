package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Network partitioning of the RCDP valuation search.
//
// A PartitionPlan deterministically splits the top-level
// (disjunct, branch) task space of an RCDP check into K disjoint
// slices; RCDPSliceCtx evaluates exactly one slice, and MergeSlices
// reassembles the slice results into the verdict the single-process
// engine would have produced. Determinism rests on the same packed
// (disjunct, branch) arbitration keys as the parallel engine
// (parallel.go): every slice reports the smallest key it claimed, the
// merge takes the global minimum, and within one branch the recursion
// is the sequential DFS — so the merged witness is exactly the
// sequential engine's (lowest disjunct, then lowest top-level branch,
// then depth-first order), no matter which shard ran which branch or
// in which order the shard results arrive.
//
// Stats reassembly is exact for decisive runs because every gate
// charge after setup is attributable to one branch and is
// history-independent: the setup charges (partial-closure check, Q(D)
// evaluation) are identical on every shard, and the per-valuation
// charges (tuple materialization, Δ-constraint rows) depend only on
// the valuation, not on which valuations ran before it — the p(Dm)
// memo is built outside the gate. Near budget boundaries slices can
// tip to either side independently, the same caveat the parallel
// engine documents.

// PartitionPlan names one slice of a K-way deterministic split of the
// top-level disjunct/branch space. The zero value is invalid; the
// canonical whole-space plan is {Slices: 1, Slice: 0}.
type PartitionPlan struct {
	// Slices is the total number of slices K (>= 1).
	Slices int
	// Slice is this slice's index in [0, Slices).
	Slice int
}

// Validate reports whether the plan is well-formed.
func (p PartitionPlan) Validate() error {
	if p.Slices < 1 {
		return fmt.Errorf("core: partition plan needs Slices >= 1, got %d", p.Slices)
	}
	if p.Slice < 0 || p.Slice >= p.Slices {
		return fmt.Errorf("core: partition slice %d out of range [0, %d)", p.Slice, p.Slices)
	}
	return nil
}

// Owns reports whether this slice owns top-level branch `branch` of
// disjunct `disjunct`. Ownership is round-robin over branch index with
// a per-disjunct rotation, so consecutive branches of one disjunct —
// whose subtree costs tend to correlate — land on different slices,
// and every (disjunct, branch) pair is owned by exactly one slice.
func (p PartitionPlan) Owns(disjunct, branch int) bool {
	return (disjunct+branch)%p.Slices == p.Slice
}

// SharedBudget is a cross-slice valuation ledger. Slices of one
// partitioned check that run in the same process and share a
// SharedBudget (Checker.SliceBudget) charge one per-disjunct counter
// between them, so the K-way fan-out trips the MaxValuations cap after
// the same total number of valuations as the sequential and parallel
// engines — instead of granting each slice its own cap and letting a
// K-way run spend up to K× the budget (the per-slice divergence
// TestPartitionBudgetClaim pins).
//
// Budget trips stay merge-deterministic under sharing because the trip
// claims budgetKey(disjunct), which does not encode the claiming
// slice. Two caveats are inherent: per-branch BranchStats valuation
// counts become approximate when slices charge the ledger
// concurrently (the ledger cannot attribute charges to branches), and
// near the cap boundary a shared run may exhaust on work the
// sequential engine would have ordered after the witness — the same
// boundary caveat the parallel engine documents. Away from the
// boundary, verdicts and witnesses are identical.
//
// The zero value is not usable; create with NewSharedBudget. The
// ledger is single-use: one partitioned check, then discard.
type SharedBudget struct {
	mu   sync.Mutex
	caps map[int]*budgetCtl
}

// NewSharedBudget returns an empty ledger for one partitioned check.
func NewSharedBudget() *SharedBudget {
	return &SharedBudget{caps: make(map[int]*budgetCtl)}
}

// disjunct returns the shared controller for one disjunct, creating it
// with the given cap on first use. The first caller's cap wins; slices
// of one check always agree on it (it is the checker's
// effectiveValuations).
func (sb *SharedBudget) disjunct(di, cap int) *budgetCtl {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if bc, ok := sb.caps[di]; ok {
		return bc
	}
	bc := newBudgetCtl(cap)
	sb.caps[di] = bc
	return bc
}

// sliceBudget resolves the valuation controller rcdpSlice uses for one
// disjunct: the shared cross-slice ledger when the checker carries
// one, else a fresh per-slice controller (the legacy divergent mode).
func (ck *Checker) sliceBudget(di int) *budgetCtl {
	if ck.SliceBudget != nil {
		return ck.SliceBudget.disjunct(di, ck.effectiveValuations())
	}
	return newBudgetCtl(ck.effectiveValuations())
}

// NoClaim is the SliceResult.Claim value meaning the slice exhausted
// its branches without claiming a witness or a budget stop. Every real
// claim key is smaller, so min-merging claims across slices works
// without special cases. The value survives a JSON round-trip exactly
// (encoding/json emits int64 as a digit literal and parses it back
// exactly into an int64 field).
const NoClaim = noKey

// BranchStats records the resources one fully- or partially-enumerated
// top-level branch consumed: candidate valuations visited, and the
// gate's join-row and tuple charges attributable to the branch's
// subtree. Zero-consumption branches (pruned at the top-level
// assignment) are omitted from SliceResult.Branches.
type BranchStats struct {
	Disjunct   int   `json:"disjunct"`
	Branch     int   `json:"branch"`
	Valuations int   `json:"valuations"`
	JoinRows   int64 `json:"join_rows,omitempty"`
	Tuples     int64 `json:"tuples,omitempty"`
}

// key returns the branch's arbitration key.
func (b BranchStats) key() int64 { return packKey(b.Disjunct, b.Branch) }

// SliceResult is the outcome of evaluating one partition slice.
type SliceResult struct {
	// Plan identifies the slice.
	Plan PartitionPlan
	// Claim is the smallest arbitration key the slice claimed: a
	// witness key packKey(d, b), a budget key budgetKey(d), or NoClaim.
	Claim int64
	// Verdict is the slice-local outcome: Complete when the slice's
	// branches are exhausted without a claim (the slice alone cannot
	// prove global completeness — that takes all K slices agreeing),
	// Incomplete when it claimed a witness, Unknown on a budget claim
	// or a governance stop.
	Verdict Verdict
	// Reason, when Verdict is Unknown, names the exhausted dimension.
	Reason Reason
	// Setup reports the gate charges of the disjunct-independent setup
	// (partial-closure check, Q(D) evaluation) — identical on every
	// slice of the same check, counted once by MergeSlices.
	Setup BudgetStats
	// Branches are the per-branch consumption records of the branches
	// this slice enumerated (zero-consumption branches omitted).
	Branches []BranchStats
	// Witness, when Incomplete, is the slice's counterexample with
	// Extension/NewTuple/Disjunct populated.
	Witness *RCDPResult
	// Elapsed is the slice's wall-clock duration.
	Elapsed time.Duration
}

// RCDPSliceCtx evaluates one partition slice of an RCDP check: the
// full setup (so preconditions and setup stats match the sequential
// engine), then only the top-level branches plan.Owns, sequentially in
// key order. Governance (context, Budget) applies to the slice as in
// RCDPCtx: a governance stop yields Verdict Unknown with the Reason
// rather than an error. Checker.Workers is ignored — a slice is the
// unit of distribution, and runs strictly sequentially so its claim is
// the slice's DFS-first key.
func (ck *Checker) RCDPSliceCtx(ctx context.Context, q qlang.Query, d, dm *relation.Database, v *cc.Set, plan PartitionPlan) (*SliceResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	co := startCheck("rcdp-slice", 1)
	start := time.Now()
	gv := newGovernor(ctx, ck.Budget)
	defer gv.close()
	res, err := ck.rcdpSlice(q, d, dm, v, plan, gv)
	if err != nil {
		if r := reasonOf(err); r != ReasonNone {
			out := &SliceResult{
				Plan:    plan,
				Claim:   NoClaim,
				Verdict: VerdictUnknown,
				Reason:  r,
				Setup:   gv.stats(0),
				Elapsed: time.Since(start),
			}
			out.Setup.Elapsed = 0
			co.done("unknown", r, gv.stats(0))
			return out, nil
		}
		co.done("error", ReasonNone, gv.stats(0))
		return nil, err
	}
	res.Elapsed = time.Since(start)
	total := BudgetStats{}
	for _, b := range res.Branches {
		total.Valuations += b.Valuations
	}
	co.done(res.Verdict.String(), res.Reason, gv.stats(total.Valuations))
	return res, nil
}

// rcdpSlice runs the owned branches of one slice. Claims go through
// the same raceCtl as the parallel engine — with one sequential
// caller, the first claim is the slice's smallest key, because owned
// branches run in ascending key order and a claim cancels everything
// larger.
func (ck *Checker) rcdpSlice(q qlang.Query, d, dm *relation.Database, v *cc.Set, plan PartitionPlan, gv *governor) (*SliceResult, error) {
	gate := gv.gateOf()
	prep, err := ck.prepareRCDP(q, d, dm, v, gate)
	out := &SliceResult{Plan: plan, Claim: NoClaim, Verdict: VerdictComplete}
	if err != nil {
		return nil, err
	}
	out.Setup = BudgetStats{JoinRows: gate.Rows(), Tuples: gate.Tuples()}
	if prep == nil {
		return out, nil // unsatisfiable query: trivially complete
	}

	ctl := newRaceCtl()
claims:
	for di, search := range prep.searches {
		if search == nil {
			continue
		}
		bud := ck.sliceBudget(di)
		tasks := search.branchTasks(ctl, bud, di, prep.witnessFn(di, d, dm, v, gate))
		// Baseline at the current count: a shared ledger may already
		// carry other slices' charges, which are not this slice's.
		prevVisited := bud.count()
		claimed := false
		for bi, task := range tasks {
			if !plan.Owns(di, bi) {
				continue
			}
			rows0, tuples0 := gate.Rows(), gate.Tuples()
			task()
			rec := BranchStats{
				Disjunct:   di,
				Branch:     bi,
				Valuations: bud.count() - prevVisited,
				JoinRows:   gate.Rows() - rows0,
				Tuples:     gate.Tuples() - tuples0,
			}
			prevVisited = bud.count()
			if rec.Valuations != 0 || rec.JoinRows != 0 || rec.Tuples != 0 {
				out.Branches = append(out.Branches, rec)
			}
			if _, key, err := ctl.result(); err != nil {
				return nil, err
			} else if key != noKey {
				// Every branch this slice has not yet run carries a
				// larger key, so nothing can improve on the claim.
				claimed = true
			}
			if claimed {
				break
			}
		}
		noteDisjunct(di, bud.count(), claimed && !keyIsBudget(mustClaim(ctl)))
		if claimed {
			break claims
		}
	}

	val, key, err := ctl.result()
	if err != nil {
		return nil, err
	}
	out.Claim = key
	switch {
	case key == noKey:
		out.Verdict = VerdictComplete
	case keyIsBudget(key):
		out.Verdict = VerdictUnknown
		out.Reason = ReasonValuations
	default:
		w := val.(*RCDPResult)
		w.Verdict = VerdictIncomplete
		out.Verdict = VerdictIncomplete
		out.Witness = w
	}
	return out, nil
}

// mustClaim reads the current best claim key; callers only use it
// after observing a claim, so noKey cannot come back.
func mustClaim(ctl *raceCtl) int64 {
	_, key, _ := ctl.result()
	return key
}

// MergeSlices reassembles the K slice results of one partitioned RCDP
// check into the result the single-process sequential engine would
// produce. The inputs may arrive in any order; each slice index must
// appear exactly once and all plans must agree on K. Arbitration is
// the minimum claim key: a witness claim reproduces the sequential
// witness and its prefix stats (setup charges once, plus every branch
// record with key <= the winner — exactly the branches the sequential
// engine enumerates before stopping); a budget claim reproduces the
// sequential ErrBudgetExceeded surface (Verdict Unknown,
// ReasonValuations); no claims at all is Complete with the summed
// totals. A slice stopped by governance (Unknown without a claim)
// makes the merge Unknown with that slice's reason — unless a witness
// claim exists, which is sound evidence of incompleteness regardless
// (though near governance boundaries it may differ from the
// sequential run's outcome, as with the parallel engine). Stats.Elapsed
// is the maximum slice Elapsed (wall-clock is not part of the
// byte-identity contract).
func MergeSlices(results []*SliceResult) (*RCDPResult, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("core: MergeSlices needs at least one slice result")
	}
	for _, r := range results {
		if r == nil {
			return nil, fmt.Errorf("core: MergeSlices: nil slice result")
		}
	}
	k := results[0].Plan.Slices
	if len(results) != k {
		return nil, fmt.Errorf("core: MergeSlices: got %d results for a %d-way partition", len(results), k)
	}
	order := make([]*SliceResult, k)
	for _, r := range results {
		if r.Plan.Slices != k {
			return nil, fmt.Errorf("core: MergeSlices: mixed partition widths %d and %d", k, r.Plan.Slices)
		}
		if err := r.Plan.Validate(); err != nil {
			return nil, err
		}
		if order[r.Plan.Slice] != nil {
			return nil, fmt.Errorf("core: MergeSlices: slice %d appears twice", r.Plan.Slice)
		}
		order[r.Plan.Slice] = r
	}

	winner := int64(NoClaim)
	var wslice *SliceResult
	for _, r := range order {
		if r.Claim < winner {
			winner = r.Claim
			wslice = r
		}
	}
	var stopped *SliceResult
	for _, r := range order {
		if r.Verdict == VerdictUnknown && r.Claim == NoClaim {
			stopped = r
			break
		}
	}

	// sum assembles the merged stats: setup once (identical on every
	// slice), plus every branch record with key <= limit. Branch sets
	// are disjoint across slices (Owns partitions the key space), so
	// the sum never double-counts.
	sum := func(limit int64) BudgetStats {
		st := order[0].Setup
		st.Elapsed = 0
		for _, r := range order {
			for _, b := range r.Branches {
				if b.key() <= limit {
					st.Valuations += b.Valuations
					st.JoinRows += b.JoinRows
					st.Tuples += b.Tuples
				}
			}
			if r.Elapsed > st.Elapsed {
				st.Elapsed = r.Elapsed
			}
		}
		return st
	}

	switch {
	case winner != NoClaim && !keyIsBudget(winner):
		w := wslice.Witness
		if w == nil {
			return nil, fmt.Errorf("core: MergeSlices: slice %d claims witness key %d but carries no witness", wslice.Plan.Slice, winner)
		}
		st := sum(winner)
		return &RCDPResult{
			Complete:   false,
			Verdict:    VerdictIncomplete,
			Extension:  w.Extension,
			NewTuple:   w.NewTuple,
			Disjunct:   w.Disjunct,
			Valuations: st.Valuations,
			Stats:      st,
		}, nil
	case winner != NoClaim:
		// Budget claim: mirror RCDPCtx's governance surface, which
		// reports zero Valuations in Stats for Unknown verdicts.
		st := sum(winner)
		st.Valuations = 0
		return &RCDPResult{Verdict: VerdictUnknown, Reason: ReasonValuations, Stats: st}, nil
	case stopped != nil:
		st := stopped.Setup
		for _, b := range stopped.Branches {
			st.JoinRows += b.JoinRows
			st.Tuples += b.Tuples
		}
		st.Valuations = 0
		for _, r := range order {
			if r.Elapsed > st.Elapsed {
				st.Elapsed = r.Elapsed
			}
		}
		return &RCDPResult{Verdict: VerdictUnknown, Reason: stopped.Reason, Stats: st}, nil
	default:
		st := sum(NoClaim)
		return &RCDPResult{Complete: true, Verdict: VerdictComplete, Valuations: st.Valuations, Stats: st}, nil
	}
}
