package main

import (
	"testing"

	"repro/internal/core"
)

// TestTableIncrementalGovernedStop runs the incremental series under a
// 500-row budget, which stops the cold CRM check before it decides:
// the series must record the unknown cold baseline with its reason,
// skip both recheck legs (there is no verdict to reuse) and succeed.
func TestTableIncrementalGovernedStop(t *testing.T) {
	prevChecker, prevJSON, prevRecords := checker, jsonMode, records
	t.Cleanup(func() { checker, jsonMode, records = prevChecker, prevJSON, prevRecords })
	checker = core.Checker{Workers: 1, Budget: core.Budget{MaxJoinRows: 500}}
	jsonMode, records = true, nil

	if err := tableIncremental(true); err != nil {
		t.Fatalf("tableIncremental under a 500-row budget: %v", err)
	}
	if len(records) != 1 {
		t.Fatalf("want only the cold record, got %+v", records)
	}
	if r := records[0]; r.Name != "crm-cold" || r.Verdict != "unknown" || r.Reason != "join-rows" {
		t.Fatalf("cold record %+v, want crm-cold unknown on join-rows", r)
	}
}
