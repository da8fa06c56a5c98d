package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// own lists of workloads and metrics in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program {%s %s}", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n prog %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's list")
	}
	if len(b.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(b.PerLayer))
	}
	seen := map[string]bool{}
	sawSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		sawSetup = sawSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", b.Paths)
	}
}

// TestSmoke runs every workload at tiny size — two reps and the traced
// rep — and checks the output schema and the invariants that hold at any
// size: which layers a workload must not reach.
func TestSmoke(t *testing.T) {
	results := map[string]*result{}
	for _, w := range workloads {
		res, err := runOne(w, 1998, options{tiny: true, fixedReps: 2, trace: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		results[w.Name] = res
		if !res.Correct {
			t.Errorf("%s: not correct: %v", w.Name, res.Problems)
		}
		if res.Reps != 2 || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: reps %d attempted %d failed %d", w.Name, res.Reps, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			if v, ok := res.EndToEnd[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.Name, d.Name, v)
			}
		}
		if len(res.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end values for %d metrics", w.Name, len(res.EndToEnd), len(endToEnd))
		}
		var unknown []string
		listed := map[string]bool{}
		for _, d := range perLayer {
			listed[d.Name] = true
			if _, ok := res.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.Name)
			}
		}
		for name := range res.PerLayer {
			if !listed[name] {
				unknown = append(unknown, name)
			}
		}
		sort.Strings(unknown)
		if len(unknown) > 0 {
			t.Errorf("%s: per-layer values not in the metric list: %v", w.Name, unknown)
		}
		if res.PerLayer["bench.trace_overhead_ratio"] <= 0 {
			t.Errorf("%s: no trace overhead reported", w.Name)
		}
		if len(res.spans) == 0 || len(res.Shares) == 0 {
			t.Errorf("%s: traced rep left no spans or no share table", w.Name)
		}

		line, err := json.Marshal(driverLineOf(res, true))
		if err != nil {
			t.Fatal(err)
		}
		var decoded map[string]json.RawMessage
		if err := json.Unmarshal(line, &decoded); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(decoded))
		for k := range decoded {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("%s: driver line has keys %v, want %v", w.Name, keys, want)
		}
	}

	zero := func(workload, metric string) {
		t.Helper()
		if v := results[workload].PerLayer[metric]; v != 0 {
			t.Errorf("%s: %s = %v, want 0 (the workload must bypass that layer)", workload, metric, v)
		}
	}
	positive := func(workload, metric string) {
		t.Helper()
		if v := results[workload].PerLayer[metric]; !(v > 0) {
			t.Errorf("%s: %s = %v, want > 0 (the workload exists to load that layer)", workload, metric, v)
		}
	}
	zero("listen_steady", "allocator.allocate.count")
	zero("listen_steady", "admission.plan.count")
	zero("create_churn", "admission.plan.count")
	zero("create_churn", "storage.append.records")
	zero("create_churn", "storage.fs.writes")
	zero("sim_occupancy", "directory.spans")
	zero("sim_occupancy", "storage.fs.writes")
	positive("listen_steady", "clash.observe.count")
	positive("listen_steady", "storage.append.records")
	positive("listen_steady", "sap.decode.compressed_share")
	positive("flash_crowd", "admission.plan.count")
	positive("flash_crowd", "admission.evictions")
	positive("create_churn", "allocator.allocate.count")
	positive("create_churn", "announce.live_scan.count")
	positive("create_churn", "clash.moves")
	positive("sim_occupancy", "allocator.allocate.count")
	positive("sim_occupancy", "sim.visible_at.us_per_op")
}

// TestScriptsAreSeeded checks that a seed fixes the script and that
// another seed changes it.
func TestScriptsAreSeeded(t *testing.T) {
	digest := func(seed uint64) int {
		s, err := genListen(seed, listenTiny)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, c := range s.calls {
			for _, m := range c.msgs {
				for _, b := range m.Data {
					n = n*31 + int(b)
				}
			}
		}
		return n
	}
	if digest(5) != digest(5) {
		t.Error("the same seed generated two different scripts")
	}
	if digest(5) == digest(6) {
		t.Error("two seeds generated the same script")
	}
}
