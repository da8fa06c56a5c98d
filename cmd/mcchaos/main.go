//go:build unix

// Command mcchaos orchestrates process-level chaos against a fleet of
// real sdrd daemons: it wires them together through the deterministic
// UDP fault relay (internal/relay), applies a seeded fault schedule —
// flash-crowd announcement bursts, SIGKILL and restart, SIGSTOP/SIGCONT
// freezes, network partition and heal — and asserts the recovery
// invariants the session directory protocol promises:
//
//   - converged: after healing, every honest session is visible on
//     every surviving daemon (ghosts of killed incarnations tolerated);
//   - clash-response and clash-distinct: the clash machinery ran and
//     owners ended on pairwise-distinct groups;
//   - crash-recovery: a SIGKILLed daemon restarts from its checkpoint
//     cache with listened state intact;
//   - degradation and degradation-decay: overload tiers engage under
//     the crowd and relax once it goes stale;
//   - health: probes stay green;
//   - storage-faults: a daemon whose journaled cache runs over an
//     injected-fault disk (-storage-faults) counts checkpoint/append
//     errors, may degrade /readyz — and nothing else: it keeps serving,
//     stays live, and never quarantines a file over a torn write.
//
// The verdict log is seed-replayable: every line is a function of the
// seed's draws and invariant outcomes only, so two runs with the same
// -seed and -schedule write byte-identical verdicts. Diagnostics with
// run-specific detail (ports, counts, timings) go to stderr instead.
//
// Exit codes: 0 all invariants held, 1 an invariant failed, 2 setup
// error (the run could not be carried out).
//
// mcchaos builds on Unix only: its freezes need SIGSTOP and SIGCONT.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n         = flag.Int("n", 4, "daemon fleet size (minimum 2)")
		seed      = flag.Uint64("seed", 41, "master seed for relay faults and schedule draws")
		scName    = flag.String("schedule", "quick", "fault schedule: quick (CI, ~1 min) or extended (nightly)")
		sdrdBin   = flag.String("sdrd", "", "sdrd binary to spawn (empty = go build ./cmd/sdrd into the artifacts dir)")
		artifacts = flag.String("artifacts", "", "directory for daemon logs, caches and the verdict (empty = temp dir)")
	)
	flag.Parse()
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if *n < 2 {
		log.Printf("mcchaos: -n %d: need at least 2 daemons", *n)
		return 2
	}
	if *seed == 0 {
		log.Printf("mcchaos: -seed 0 is reserved; pick a nonzero seed so the run is replayable")
		return 2
	}
	var sc schedule
	switch *scName {
	case "quick":
		sc = quickSchedule()
	case "extended":
		sc = extendedSchedule()
	default:
		log.Printf("mcchaos: unknown -schedule %q (quick or extended)", *scName)
		return 2
	}

	dir := *artifacts
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "mcchaos-"); err != nil {
			log.Printf("mcchaos: artifacts dir: %v", err)
			return 2
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("mcchaos: artifacts dir: %v", err)
		return 2
	}
	log.Printf("artifacts in %s", dir)

	bin := *sdrdBin
	if bin == "" {
		bin = filepath.Join(dir, "sdrd")
		log.Printf("building sdrd into %s", bin)
		build := exec.Command("go", "build", "-o", bin, "./cmd/sdrd")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			log.Printf("mcchaos: building sdrd (run from the repo root or pass -sdrd): %v", err)
			return 2
		}
	}

	v, err := newVerdict(filepath.Join(dir, "verdict.log"))
	if err != nil {
		log.Printf("mcchaos: %v", err)
		return 2
	}
	defer v.close()

	ok, err := sc.run(v, *n, *seed, bin, dir)
	if err != nil {
		log.Printf("mcchaos: setup: %v", err)
		return 2
	}
	if !ok {
		v.logf("verdict FAIL")
		log.Printf("FAIL (daemon logs and verdict in %s)", dir)
		return 1
	}
	v.logf("verdict PASS")
	log.Printf("PASS (verdict in %s)", dir)
	return 0
}

// verdict is the seed-replayable run record: phases, invariant
// outcomes, final verdict. It is written both to stdout and to
// verdict.log in the artifacts directory.
type verdict struct {
	mu     sync.Mutex
	w      io.Writer
	file   *os.File
	failed bool
}

func newVerdict(path string) (*verdict, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("verdict log: %w", err)
	}
	return &verdict{w: io.MultiWriter(os.Stdout, f), file: f}, nil
}

// logf writes one verdict line. Callers must keep arguments
// deterministic: seed draws, fixed schedule parameters and invariant
// outcomes only.
func (v *verdict) logf(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	fmt.Fprintf(v.w, format+"\n", args...)
}

// invariant records one invariant outcome as a verdict line.
func (v *verdict) invariant(name string, ok bool) {
	state := "ok"
	if !ok {
		state = "FAIL"
		v.mu.Lock()
		v.failed = true
		v.mu.Unlock()
	}
	v.logf("invariant %s %s", name, state)
}

func (v *verdict) allOK() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return !v.failed
}

func (v *verdict) close() {
	if err := v.file.Close(); err != nil && !strings.Contains(err.Error(), "file already closed") {
		log.Printf("verdict log close: %v", err)
	}
}
