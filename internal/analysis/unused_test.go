package analysis

import "testing"

func TestUnusedFixture(t *testing.T) {
	diags := runFixture(t, "unused", Unused)
	if len(diags) != 14 {
		t.Errorf("got %d diagnostics, want 14:\n%s", len(diags), diagnosticSummary(diags))
	}
}

func TestUnusedReportsAnUnimportedPackageOnce(t *testing.T) {
	runFixture(t, "unusedlib", Unused)
}
