package analysis

import (
	"reflect"
	"testing"

	"sessiondir/internal/obs"
)

func TestMetricNameFixture(t *testing.T) {
	diags := runFixture(t, "metricname", MetricName)
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, want 6:\n%s", len(diags), diagnosticSummary(diags))
	}
}

// registryMethods is a hand-kept list, and a registration entry point
// missing from it is a metric whose name nothing checks (obs once had a
// striped-counter constructor that was never listed, and the directory's
// malformed-packet metric went unlinted behind it). Hold the list to
// *obs.Registry's real method set: every exported method that starts
// (name, help string, ...) must be listed, and nothing else may be.
func TestRegistryMethodsCoverEveryRegistrationEntryPoint(t *testing.T) {
	str := reflect.TypeOf("")
	reg := reflect.TypeOf((*obs.Registry)(nil))
	registers := map[string]bool{}
	for i := 0; i < reg.NumMethod(); i++ {
		m := reg.Method(i)
		// In(0) is the receiver.
		if m.Type.NumIn() >= 3 && m.Type.In(1) == str && m.Type.In(2) == str {
			registers[m.Name] = true
			if !registryMethods[m.Name] {
				t.Errorf("obs.Registry.%s takes (name, help string) but is not in registryMethods: metricname never sees its names", m.Name)
			}
		}
	}
	for name := range registryMethods {
		if !registers[name] {
			t.Errorf("registryMethods lists %q, which is not a (name, help string) method of *obs.Registry", name)
		}
	}
	if len(registers) == 0 {
		t.Fatal("found no registration methods on *obs.Registry: the reflection walk is broken")
	}
}
