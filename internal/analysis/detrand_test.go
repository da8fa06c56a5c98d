package analysis

import "testing"

func TestDetRandFixture(t *testing.T) {
	diags := runFixture(t, "detrand", DetRand)
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, want 6:\n%s", len(diags), diagnosticSummary(diags))
	}
}

// A command may read the wall clock and range over a map in any order;
// the same code in a library beside it is flagged.
func TestDetRandMapOrderExemptCommands(t *testing.T) {
	if diags := runFixture(t, "command", DetRand, MapOrder); len(diags) != 0 {
		t.Errorf("command: got %d diagnostics, want 0:\n%s", len(diags), diagnosticSummary(diags))
	}
	if diags := runFixture(t, "command/lib", DetRand, MapOrder); len(diags) != 3 {
		t.Errorf("command/lib: got %d diagnostics, want 3:\n%s", len(diags), diagnosticSummary(diags))
	}
}
