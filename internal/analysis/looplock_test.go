package analysis

import "testing"

func TestLoopLockFixture(t *testing.T) {
	diags := runFixture(t, "looplock", LoopLock)
	if len(diags) != 3 {
		t.Errorf("got %d diagnostics, want 3:\n%s", len(diags), diagnosticSummary(diags))
	}
}
