// Command benchmark is this repository's benchmark: four seeded,
// closed-loop, single-caller workloads replayed against the exported APIs
// of the sessiondir package and internal/sim, measured with an estimator
// built for a noisy shared host. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1998 -out results.json
//
// The driver form prints one JSON object as the last line of output:
//
//	go run ./benchmark --workload listen_steady --seed 7 --seconds 25 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload names one script generator. Why is the recorded reason the
// workload exists; BENCHMARK.json repeats it.
type workload struct {
	Name string
	Why  string
	gen  func(seed uint64, tiny bool) (script, error)
}

func pick[T any](tiny bool, small, full T) T {
	if tiny {
		return small
	}
	return full
}

var workloads = []workload{
	{"listen_steady", "listener fast path: re-announcements of 1024 known sessions, journaling on; allocator and admission budgets idle, so a change to either must not move it",
		func(seed uint64, tiny bool) (script, error) {
			return genListen(seed, pick(tiny, listenTiny, listenFull))
		}},
	{"flash_crowd", "admission under a full session budget: unknown sessions force candidate scans, evictions, sheds and tier changes; same cache as listen_steady, used by scan instead of by key",
		func(seed uint64, tiny bool) (script, error) { return genFlash(seed, pick(tiny, flashTiny, flashFull)) }},
	{"create_churn", "CreateSession/Withdraw churn over 1024 heard sessions: the allocator view is rebuilt per create; codec, admission and journal nearly idle, so it bypasses listener-path changes",
		func(seed uint64, tiny bool) (script, error) {
			return genCreate(seed, pick(tiny, createTiny, createFull))
		}},
	{"sim_occupancy", "occupancy simulator placements to 73% of the space: no Directory code runs; shares only the allocator layer with create_churn, under a different view shape",
		func(seed uint64, tiny bool) (script, error) { return genSim(seed, pick(tiny, simTiny, simFull)), nil }},
}

//go:embed fingerprints.json
var fingerprintsJSON []byte

// recordedFingerprint looks up the fingerprint recorded for a workload
// and seed (seeds 1998 and 7 are recorded; 7 is the held-out one).
func recordedFingerprint(name string, seed uint64) (fingerprint, bool) {
	var all map[string]map[string]fingerprint
	if err := json.Unmarshal(fingerprintsJSON, &all); err != nil {
		return fingerprint{}, false
	}
	fp, ok := all[name][fmt.Sprint(seed)]
	return fp, ok
}

// hostFacts are recorded with every result: numbers from one host do not
// transfer to another.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Network    string `json:"network"`
}

func host() hostFacts {
	return hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Network: "in-process transport; transport.udp.* metrics cross the host's loopback interface, no real link",
	}
}

// runOne generates and runs one workload.
func runOne(w workload, seed uint64, opt options) (*result, error) {
	t0 := time.Now()
	s, err := w.gen(seed, opt.tiny)
	if err != nil {
		return nil, fmt.Errorf("%s: generate: %w", w.Name, err)
	}
	res, err := runWorkload(s, seed, time.Since(t0), opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if opt.trace {
		if d, ok := s.(*dirScript); ok {
			probeUDP(d, res.PerLayer)
		}
	}
	return res, nil
}

func printResult(res *result) {
	fmt.Printf("%s  seed=%d reps=%d correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Reps, res.Correct, res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
	for _, d := range endToEnd {
		fmt.Printf("  %-44s %16.4f %s\n", d.Name, res.EndToEnd[d.Name], d.Unit)
	}
	if res.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Printf("  %-44s %16.4f %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
	}
	fmt.Printf("  share of traced call time by layer (the most a faster layer can save):\n")
	for _, sh := range res.Shares {
		fmt.Printf("    %-20s %8.3f s  %5.1f%%\n", sh.Layer, sh.BusyS, 100*sh.Share)
	}
}

// driverLine is the last line of output in the single-workload form.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLineOf(res *result, traced bool) driverLine {
	defs, vals := endToEnd, res.EndToEnd
	if traced {
		defs, vals = perLayer, res.PerLayer
	}
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{vals[d.Name], d.Unit}
	}
	return line
}

// report is the -out file.
type report struct {
	Host    hostFacts `json:"host"`
	Seconds int       `json:"seconds"`
	Results []*result `json:"results"`
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run: all, "+workloadNames())
		seed      = flag.Uint64("seed", 1998, "workload seed; the program under test never sees it")
		seconds   = flag.Int("seconds", 25, "how long each workload keeps replaying (never fewer than 7 reps)")
		trace     = flag.Int("trace", 0, "1 adds a traced rep and reports the per-layer metrics")
		out       = flag.String("out", "", "write all results as JSON to this file")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write the spans as JSON to this file (suffixed per workload with -workload all)")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of three suite runs and fail if their medians disagree beyond a metric's bound")
	)
	flag.Parse()
	// One driver goroutine; two procs so the program's own fan-out (batch
	// parse, partition scans) has a second core to use, as on the 2-core
	// reference host.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if err := run(*name, *seed, *seconds, *trace == 1, *out, *traceOut, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

func run(name string, seed uint64, seconds int, trace bool, out, traceOut string, selfcheck bool) error {
	var selected []workload
	for _, w := range workloads {
		if name == "all" || name == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q (have all, %s)", name, workloadNames())
	}
	opt := options{budget: time.Duration(seconds) * time.Second, trace: trace}
	if selfcheck {
		return runSelfcheck(selected, seed, opt)
	}

	rep := report{Host: host(), Seconds: seconds}
	ok := true
	for _, w := range selected {
		res, err := runOne(w, seed, opt)
		if err != nil {
			return err
		}
		printResult(res)
		ok = ok && res.Correct
		rep.Results = append(rep.Results, res)
		if trace && traceOut != "" {
			path := traceOut
			if len(selected) > 1 {
				path += "." + w.Name
			}
			if err := writeSpans(path, res.spans); err != nil {
				return err
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(selected) == 1 {
		line, err := json.Marshal(driverLineOf(rep.Results[0], trace))
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !ok {
		return fmt.Errorf("outputs are not correct (see PROBLEM lines)")
	}
	return nil
}

// runSelfcheck runs the selected workloads six times, A B A B A B, and
// compares set A's medians with set B's: the same code measured twice
// must agree within each metric's own bound.
func runSelfcheck(selected []workload, seed uint64, opt options) error {
	opt.trace = false
	const perSet = 3
	// values[workload][metric][set] = one value per suite run
	values := map[string]map[string][2][]float64{}
	for round := 0; round < 2*perSet; round++ {
		set := round % 2
		for _, w := range selected {
			res, err := runOne(w, seed, opt)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: outputs are not correct: %s", w.Name, strings.Join(res.Problems, "; "))
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][2][]float64{}
			}
			for m, v := range res.EndToEnd {
				pair := values[w.Name][m]
				pair[set] = append(pair[set], v)
				values[w.Name][m] = pair
			}
			fmt.Printf("run %d (set %c) %s done\n", round+1, 'A'+set, w.Name)
		}
	}
	var failures []string
	for _, w := range selected {
		fmt.Printf("%s\n  %-24s %14s %14s %14s %14s %8s %6s\n", w.Name, "metric", "median A", "IQR A", "median B", "IQR B", "gap", "bound")
		for _, d := range endToEnd {
			pair := values[w.Name][d.Name]
			ma, mb := median(pair[0]), median(pair[1])
			a1, a3 := quartiles(pair[0])
			b1, b3 := quartiles(pair[1])
			gap := ratio(mb-ma, ma)
			if gap < 0 {
				gap = -gap
			}
			verdict := ""
			if gap > d.Bound {
				verdict = "  DISAGREE"
				failures = append(failures, fmt.Sprintf("%s/%s gap %.1f%% > bound %.0f%%", w.Name, d.Name, 100*gap, 100*d.Bound))
			}
			fmt.Printf("  %-24s %14.4f %14.4f %14.4f %14.4f %7.2f%% %5.0f%%%s\n", d.Name, ma, a3-a1, mb, b3-b1, 100*gap, 100*d.Bound, verdict)
		}
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		return fmt.Errorf("two sets of runs of the same code disagree: %s", strings.Join(failures, "; "))
	}
	return nil
}
