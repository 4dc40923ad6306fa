package cq

import "repro/internal/relation"

// Test-only exports for the external test package, whose naive
// reference evaluator (cqtest) imports cq and so cannot be used from
// package cq's own tests.

var (
	RandomDeltaCase = randomDeltaCase
	RandomCutCase   = randomCutCase
)

// CutDepth is the plan position of EvalGate's head cut over d; -1 when
// the cut does not apply.
func CutDepth(t *Tableau, d *relation.Database) int { return t.cutDepth(t.planOrder(d)) }
