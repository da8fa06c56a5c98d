package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestValidName(t *testing.T) {
	valid := []string{"a", "dir_announcements_sent_total", "x9", "a_b_c", "udp_runts_total"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	invalid := []string{"", "Foo", "9x", "_x", "dir-announce", "a.b", "a b", "ärger"}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"AIPR-1 (20% gap)": "aipr_1_20_gap",
		"IPR 7-band":       "ipr_7_band",
		"random":           "random",
		"20gap":            "m_20gap",
		"":                 "m_",
	}
	for in, want := range cases {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
	for in := range cases {
		if s := Sanitize(in); !ValidName(s) {
			t.Errorf("Sanitize(%q) = %q is not a valid name", in, s)
		}
	}
}

func TestRegistrationValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Counter("ok_name_total", "h"); err != nil {
		t.Fatalf("valid name rejected: %v", err)
	}
	if _, err := r.Counter("ok_name_total", "h"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Cross-type duplicates are still duplicates.
	if _, err := r.Gauge("ok_name_total", "h"); err == nil {
		t.Fatal("duplicate name accepted across metric types")
	}
	if _, err := r.Counter("Bad-Name", "h"); err == nil {
		t.Fatal("non-snake_case name accepted")
	}
	if err := r.CounterFunc("9leading", "h", func() uint64 { return 0 }); err == nil {
		t.Fatal("digit-leading name accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustCounter did not panic on duplicate")
		}
	}()
	r.MustCounter("ok_name_total", "h")
}

func TestHistogramBoundsValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Histogram("h_one", "h", nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, err := r.Histogram("h_two", "h", []int64{1, 1}); err == nil {
		t.Fatal("non-ascending bounds accepted")
	}
	if _, err := r.Histogram("h_three", "h", []int64{1, 2, 4}); err != nil {
		t.Fatalf("valid bounds rejected: %v", err)
	}
}

func TestCounterGaugeHistogramValues(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("c_total", "a counter")
	g := r.MustGauge("g_now", "a gauge")
	h := r.MustHistogram("h_bytes", "a histogram", []int64{10, 100})

	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	for _, v := range []int64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 1026 {
		t.Errorf("histogram count=%d sum=%d, want 4, 1026", h.Count(), h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 2 || cum[0] != 2 || cum[1] != 3 || cum[2] != 4 {
		t.Errorf("buckets: bounds=%v cumulative=%v", bounds, cum)
	}
}

func TestSnapshotSortedAndFlattened(t *testing.T) {
	r := NewRegistry()
	r.MustCounter("zz_total", "").Add(2)
	r.MustGauge("aa_now", "").Set(-1)
	r.MustHistogram("mm_bytes", "", []int64{8}).Observe(3)
	r.MustCounterFunc("ff_total", "", func() uint64 { return 9 })
	r.MustGaugeFunc("gg_now", "", func() float64 { return 2.5 })

	snap := r.Snapshot()
	var names []string
	byName := map[string]float64{}
	for _, s := range snap {
		names = append(names, s.Name)
		byName[s.Name] = s.Value
	}
	want := []string{
		"aa_now", "ff_total", "gg_now",
		"mm_bytes_bucket_le_8", "mm_bytes_bucket_le_inf", "mm_bytes_sum", "mm_bytes_count",
		"zz_total",
	}
	if len(names) != len(want) {
		t.Fatalf("snapshot names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("snapshot names = %v, want %v", names, want)
		}
	}
	if byName["zz_total"] != 2 || byName["aa_now"] != -1 || byName["ff_total"] != 9 ||
		byName["gg_now"] != 2.5 || byName["mm_bytes_count"] != 1 || byName["mm_bytes_sum"] != 3 {
		t.Errorf("snapshot values wrong: %v", byName)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.MustCounter("b_total", "announcements sent").Add(3)
	r.MustGauge("a_now", "cache size").Set(12)
	h := r.MustHistogram("c_bytes", "packet sizes", []int64{64, 1024})
	h.Observe(50)
	h.Observe(2000)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	wantLines := []string{
		"# HELP a_now cache size",
		"# TYPE a_now gauge",
		"a_now 12",
		"# TYPE b_total counter",
		"b_total 3",
		"# TYPE c_bytes histogram",
		`c_bytes_bucket{le="64"} 1`,
		`c_bytes_bucket{le="1024"} 1`,
		`c_bytes_bucket{le="+Inf"} 2`,
		"c_bytes_sum 2050",
		"c_bytes_count 2",
	}
	for _, line := range wantLines {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing line %q:\n%s", line, got)
		}
	}
	// Families appear in lexical order.
	if strings.Index(got, "a_now") > strings.Index(got, "b_total") ||
		strings.Index(got, "b_total") > strings.Index(got, "c_bytes") {
		t.Errorf("families not in lexical order:\n%s", got)
	}
}

// TestConcurrentUpdatesAndScrapes is the -race gate: writers hammer
// every metric type while readers scrape and snapshot.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("c_total", "")
	g := r.MustGauge("g_now", "")
	h := r.MustHistogram("h_v", "", []int64{4, 16, 64})
	r.MustCounterFunc("cf_total", "", func() uint64 { return c.Value() })

	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(int64(i % 100))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != writers*perWriter {
		t.Errorf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	if g.Value() != writers*perWriter {
		t.Errorf("gauge = %d, want %d", g.Value(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
}

// TestHotPathZeroAlloc pins the allocation-free contract for every
// hot-path update operation.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.MustCounter("c_total", "")
	g := r.MustGauge("g_now", "")
	h := r.MustHistogram("h_v", "", []int64{64, 256, 1024, 65536})
	tr := NewTrace(64)
	ev := TraceEvent{At: 12.5, Kind: TraceAnnounce, Key: "k", Addr: 3}

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(2) }},
		{"Gauge.Set", func() { g.Set(5) }},
		{"Gauge.Add", func() { g.Add(-1) }},
		{"Histogram.Observe", func() { h.Observe(300) }},
		{"Trace.Record", func() { tr.Record(ev) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, allocs)
		}
	}
}
