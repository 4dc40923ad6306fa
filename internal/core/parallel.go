package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// Parallel valuation search.
//
// The top-level slot's candidate branches of a valuationSearch are
// fanned out to a workerPool; every branch runs the same backtracking
// recursion as the sequential engine (searchWorker.rec). Determinism
// does not come from scheduling (there is none to rely on) but from
// *keys*: each branch is tagged with a packed (disjunct, branch-index)
// key, a raceCtl resolves competing witness claims to the
// lexicographically smallest key, and a branch whose key is already
// beaten abandons at its next search node.
// Within one branch the recursion is sequential, so the claim it makes
// is the DFS-first witness of that branch — together the winning claim
// is exactly the witness the sequential engine would return: lowest
// disjunct, then lowest top-level branch, then depth-first order.
//
// State discipline (see also the valuationSearch field comments):
//
//	shared read-only:  Universe, Tableau, the search's slot plan and
//	                   candidate lists, the IND pruner, D/Dm (warmed),
//	                   schemas, answer sets
//	shared mutable:    raceCtl (atomics + mutex), budgetCtl (atomic)
//	per-worker:        the slot valuation with its scratch buffers,
//	                   the freshUsed symmetry counter
var (
	// errAbandoned aborts a branch whose key can no longer win.
	errAbandoned = errors.New("core: branch abandoned")
	// errBudgetStop aborts a branch after the shared budget ran out.
	errBudgetStop = errors.New("core: budget stop")
)

// noKey is the raceCtl key meaning "no claim yet"; every real key is
// smaller.
const noKey = int64(math.MaxInt64)

// packKey packs a (disjunct, branch) pair into an order-preserving
// int64: comparing keys compares (disjunct, branch) lexicographically.
func packKey(disjunct, branch int) int64 {
	return int64(disjunct)<<32 | int64(branch)
}

// budgetKey is the key a disjunct's budget exhaustion claims: it beats
// every later disjunct but loses to every witness inside its own
// disjunct, which is exactly the sequential engine's resolution (a
// budget error surfaces only if the disjunct produced no witness, and
// only if no earlier disjunct resolved first).
func budgetKey(disjunct int) int64 {
	return int64(disjunct)<<32 | int64(math.MaxUint32)
}

// keyDisjunct recovers the disjunct index from a packed key.
func keyDisjunct(key int64) int { return int(key >> 32) }

// keyIsBudget reports whether a key is a budget-exhaustion claim.
func keyIsBudget(key int64) bool { return key&int64(math.MaxUint32) == int64(math.MaxUint32) }

// raceCtl arbitrates a deterministic race: many keyed workers propose
// outcomes, the smallest key wins, and anything tagged with a larger
// key may be cancelled early. A fatal error aborts the whole race.
type raceCtl struct {
	bestKey atomic.Int64 // smallest claimed key so far; noKey when none
	fatal   atomic.Bool

	mu  sync.Mutex
	val any
	err error
}

func newRaceCtl() *raceCtl {
	c := &raceCtl{}
	c.bestKey.Store(noKey)
	return c
}

// cancelled reports whether work tagged with key can no longer affect
// the outcome. It is a single atomic load on the hot path.
func (c *raceCtl) cancelled(key int64) bool {
	return c.fatal.Load() || key > c.bestKey.Load()
}

// claim proposes an outcome for key; the smallest key wins. val may be
// nil (a budget-exhaustion claim).
func (c *raceCtl) claim(key int64, val any) {
	c.mu.Lock()
	if key < c.bestKey.Load() {
		c.bestKey.Store(key)
		c.val = val
	}
	c.mu.Unlock()
}

// fail aborts the race with an error; the first error wins.
func (c *raceCtl) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.fatal.Store(true)
}

// result returns the race outcome: the winning claim and its key, or
// noKey when nothing was claimed, or the fatal error.
func (c *raceCtl) result() (any, int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, noKey, c.err
	}
	return c.val, c.bestKey.Load(), nil
}

// budgetCtl is the shared valuation budget of one disjunct's parallel
// search: every worker that completes a candidate valuation charges the
// same atomic counter, so the MaxValuations cap bounds the disjunct's
// total work no matter how it is scheduled.
type budgetCtl struct {
	cap     int64 // 0 = unlimited
	visited atomic.Int64
}

func newBudgetCtl(cap int) *budgetCtl { return &budgetCtl{cap: int64(cap)} }

// visit charges one candidate valuation and reports whether the budget
// still holds.
func (bc *budgetCtl) visit() bool {
	n := bc.visited.Add(1)
	return bc.cap <= 0 || n <= bc.cap
}

// exhausted reports whether the budget has already run out.
func (bc *budgetCtl) exhausted() bool {
	return bc.cap > 0 && bc.visited.Load() > bc.cap
}

// count returns the number of candidate valuations charged so far.
func (bc *budgetCtl) count() int { return int(bc.visited.Load()) }

// branchTasks builds one pool task per top-level candidate branch of
// the search, tagged (disjunct, branchIndex). Each task runs its own
// worker — a private valuation over the shared search — with slot 0
// fixed to the branch's candidate. Must be called on the coordinating
// goroutine before the tasks run.
func (s *valuationSearch) branchTasks(ctl *raceCtl, bud *budgetCtl, disjunct int, fn leafFn) []func() {
	// launch builds the task for key; first is the branch's slot-0
	// candidate, or unbound for a variable-free tableau.
	launch := func(key int64, first int32) func() {
		return func() {
			if ctl.cancelled(key) || bud.exhausted() {
				return
			}
			w := &searchWorker{s: s, mu: s.newValuation(), budget: bud, fn: fn, ctl: ctl, key: key}
			var err error
			if first == unbound {
				err = w.rec(0, 0)
			} else {
				err = w.step(0, first, 0)
			}
			switch err {
			case nil, errStop, errAbandoned, errBudgetStop:
				// Branch outcome (if any) is recorded in ctl.
			default:
				ctl.fail(err)
			}
		}
	}

	if len(s.order) == 0 {
		// Variable-free tableau: a single "branch" checking the empty
		// valuation.
		return []func(){launch(packKey(disjunct, 0), unbound)}
	}
	cands := s.candidates(0, 0)
	tasks := make([]func(), 0, len(cands))
	for bi, id := range cands {
		tasks = append(tasks, launch(packKey(disjunct, bi), id))
	}
	return tasks
}

// warmShared populates the lazy caches of the read-only inputs a
// parallel search shares across workers (the per-instance tuple order
// of D and Dm). Query/constraint-side lazy state (∃FO⁺ → UCQ expansion,
// IND shapes, datalog arities) is already forced by the sequential
// entry work every decision procedure performs before fanning out.
func warmShared(dbs ...*relation.Database) {
	for _, d := range dbs {
		d.Warm()
	}
}
