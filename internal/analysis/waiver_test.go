package analysis

import "testing"

// TestWaiverFixture pins the waiver contract: each //mclint:maporder
// waiver suppresses exactly the one diagnostic at its site (both the
// lead and trailing comment forms), an identical unwaived loop still
// fires, a waiver naming an unknown analyzer is itself reported, and so
// is one that suppresses nothing, unless its analyzer did not run.
func TestWaiverFixture(t *testing.T) {
	diags := runFixture(t, "waiver", MapOrder)

	// The fixture has three violating loops, two of them waived, plus
	// one bogus and one stale waiver comment → exactly three findings
	// survive.
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3:\n%s", len(diags), diagnosticSummary(diags))
	}
	var mapOrderCount, waiverCount int
	for _, d := range diags {
		switch d.Analyzer {
		case MapOrder.Name:
			mapOrderCount++
		case WaiverDiagnostic:
			waiverCount++
		}
	}
	if mapOrderCount != 1 {
		t.Errorf("got %d surviving maporder diagnostics, want exactly 1 (each waiver suppresses exactly one):\n%s",
			mapOrderCount, diagnosticSummary(diags))
	}
	if waiverCount != 2 {
		t.Errorf("got %d waiver diagnostics, want exactly 2 (unknown, stale):\n%s", waiverCount, diagnosticSummary(diags))
	}
}
