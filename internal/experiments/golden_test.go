package experiments

import (
	"bytes"
	"testing"
)

// The rows the two packet-level DES experiments print at Quick() scale,
// recorded at the commit before internal/fault existed (PR 18). Both draw
// per-receiver loss from des.Net's single seeded stream, so any change to
// when or how often that stream is drawn moves these numbers.
const resolutionQuick = `# third-party defense: crashed originator, squatted address,
# 12 observers, 2% loss — defenses sent and time to resolution
# delay distribution      resolved   mean_defenses   mean_time
uniform [0,200ms]           9/9             11.8       0.75s
uniform [0,3.2s]            9/9              1.4       0.75s
exponential [0,3.2s]        9/9              1.6       2.75s
# exponential delays defend with ~1 announcement; short uniform windows implode
`

const discoveryQuick = `# discovery delay vs loss and announcement schedule (packet-level DES)
# schedule        loss   measured_mean   analytic_mean   learned
constant 60s        0%         0.13s           0.05s   36/36
constant 60s        5%         6.80s           3.21s   36/36
constant 60s       20%        10.13s          15.05s   36/36
exp 5s->60s         0%         0.13s           0.05s   36/36
exp 5s->60s         5%         0.69s           0.33s   36/36
exp 5s->60s        20%         0.97s           1.70s   36/36
# the exponential schedule keeps discovery fast even at high loss (§4)
`

func TestResolutionDiscoveryGolden(t *testing.T) {
	for _, c := range []struct {
		id, want string
	}{
		{"resolution", resolutionQuick},
		{"discovery", discoveryQuick},
	} {
		r, err := ByID(c.id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.Run(&buf, Quick()); err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if got := buf.String(); got != c.want {
			t.Errorf("%s rows moved from the recorded run:\n--- got:\n%s--- recorded:\n%s", c.id, got, c.want)
		}
	}
}
