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

// The fig15 runner's rows at Quick() scale, recorded when Figures 15, 16
// and 19 each had a runner with its own request–response sweeps: their
// three outputs, joined in that order. Sharing five sweeps among the three
// figures must print the same text; a sweep shared wrongly, or a change in
// the order a trial draws from its RNG, moves these numbers.
const requestResponseQuick = `# Figure 15: simulated request-response responders (uniform delay)
## A: spt,   delay~distance
spt    jitter=false uniform     D2=200       n=200    responses=   13.00 first=    45.1ms max=    70.1ms
spt    jitter=false uniform     D2=3200      n=200    responses=    4.33 first=   141.8ms max=   181.2ms
spt    jitter=false uniform     D2=51200     n=200    responses=    1.33 first=   357.6ms max=   547.3ms
spt    jitter=false uniform     D2=200       n=800    responses=   30.00 first=    25.1ms max=    26.8ms
spt    jitter=false uniform     D2=3200      n=800    responses=   10.00 first=    79.0ms max=   112.3ms
spt    jitter=false uniform     D2=51200     n=800    responses=    1.67 first=   159.2ms max=   259.2ms
## B: shared, delay~distance
shared jitter=false uniform     D2=200       n=200    responses=   13.33 first=    45.1ms max=    70.1ms
shared jitter=false uniform     D2=3200      n=200    responses=    4.33 first=   141.8ms max=   181.2ms
shared jitter=false uniform     D2=51200     n=200    responses=    1.33 first=   357.6ms max=   547.3ms
shared jitter=false uniform     D2=200       n=800    responses=   38.33 first=    25.1ms max=    26.8ms
shared jitter=false uniform     D2=3200      n=800    responses=   10.33 first=    79.0ms max=   112.3ms
shared jitter=false uniform     D2=51200     n=800    responses=    1.33 first=   222.9ms max=   354.1ms
## C: spt,   distance+random
spt    jitter=true  uniform     D2=200       n=200    responses=   10.67 first=    39.5ms max=    41.9ms
spt    jitter=true  uniform     D2=3200      n=200    responses=    4.67 first=   121.3ms max=   198.1ms
spt    jitter=true  uniform     D2=51200     n=200    responses=    1.00 first=   367.8ms max=   566.2ms
spt    jitter=true  uniform     D2=200       n=800    responses=   38.67 first=    43.7ms max=    53.6ms
spt    jitter=true  uniform     D2=3200      n=800    responses=    7.33 first=   104.1ms max=   159.1ms
spt    jitter=true  uniform     D2=51200     n=800    responses=    1.33 first=   202.3ms max=   307.2ms
## D: shared, distance+random
shared jitter=true  uniform     D2=200       n=200    responses=   13.67 first=    39.5ms max=    41.9ms
shared jitter=true  uniform     D2=3200      n=200    responses=    4.33 first=   120.6ms max=   195.8ms
shared jitter=true  uniform     D2=51200     n=200    responses=    1.00 first=   367.8ms max=   566.2ms
shared jitter=true  uniform     D2=200       n=800    responses=   46.33 first=    45.8ms max=    59.8ms
shared jitter=true  uniform     D2=3200      n=800    responses=    9.00 first=   131.0ms max=   195.8ms
shared jitter=true  uniform     D2=51200     n=800    responses=    1.67 first=   256.4ms max=   349.3ms

# Figure 16: first-response delay (spt, uniform delay)
D2=200        n=200    mean_first=     45.1ms max_first=     70.1ms
D2=3200       n=200    mean_first=    141.8ms max_first=    181.2ms
D2=51200      n=200    mean_first=    357.6ms max_first=    547.3ms
D2=200        n=800    mean_first=     25.1ms max_first=     26.8ms
D2=3200       n=800    mean_first=     79.0ms max_first=    112.3ms
D2=51200      n=800    mean_first=    159.2ms max_first=    259.2ms

# Figure 19: responses vs first-response delay
## uniform random delay
D2=200        n=200    responses=   13.33 first=   0.045s
D2=3200       n=200    responses=    4.33 first=   0.142s
D2=51200      n=200    responses=    1.33 first=   0.358s
D2=200        n=800    responses=   38.33 first=   0.025s
D2=3200       n=800    responses=   10.33 first=   0.079s
D2=51200      n=800    responses=    1.33 first=   0.223s
## exponential random delay
D2=200        n=200    responses=   12.33 first=   0.052s
D2=3200       n=200    responses=    1.00 first=   1.871s
D2=51200      n=200    responses=    1.33 first=  49.734s
D2=200        n=800    responses=   32.00 first=   0.030s
D2=3200       n=800    responses=    1.67 first=   1.397s
D2=51200      n=800    responses=    1.00 first=  49.293s
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

func TestRequestResponseGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig15(&buf, Quick()); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != requestResponseQuick {
		t.Errorf("fig15 rows moved from the recorded run:\n--- got:\n%s--- recorded:\n%s", got, requestResponseQuick)
	}
}
