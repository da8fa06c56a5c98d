package analysis

import "testing"

func TestLockScopeFixture(t *testing.T) {
	diags := runFixture(t, "lockscope", LockScope)
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3:\n%s", len(diags), diagnosticSummary(diags))
	}
}
