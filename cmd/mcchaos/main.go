//go:build unix

// Command mcchaos runs a chaos.Schedule against a fleet of real sdrd
// daemons: it wires them together through the deterministic UDP fault
// relay (internal/relay), applies the seeded schedule — flash-crowd
// announcement bursts, SIGKILL and restart, SIGSTOP/SIGCONT freezes,
// network partition and heal — and reports the recovery invariants the
// session directory protocol promises, which chaos.Schedule.Run lists and
// evaluates: the same runner, with the same verdict, that runs the
// schedule in process.
//
// The verdict log is seed-replayable: every line is a function of the
// seed's draws and invariant outcomes only, so a run with a given -seed
// and -schedule writes the verdict the in-process run of that seed
// writes. Diagnostics with run-specific detail (ports, counts, timings)
// go to stderr instead.
//
// Exit codes: 0 all invariants held, 1 an invariant failed, 2 setup
// error (the run could not be carried out).
//
// mcchaos builds on Unix only: its freezes need SIGSTOP and SIGCONT.
package main

import (
	"flag"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"

	"sessiondir/internal/chaos"
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
	sc, ok := chaos.ScheduleNamed(*scName)
	if !ok {
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

	vf, err := os.Create(filepath.Join(dir, "verdict.log"))
	if err != nil {
		log.Printf("mcchaos: verdict log: %v", err)
		return 2
	}
	defer func() { _ = vf.Close() }()

	f, err := newFleet(bin, dir, *seed, *n)
	if err != nil {
		log.Printf("mcchaos: setup: %v", err)
		return 2
	}
	defer f.close()
	ok, err = sc.Run(f, *n, *seed, io.MultiWriter(os.Stdout, vf), log.Printf)
	switch {
	case err != nil:
		log.Printf("mcchaos: setup: %v", err)
		return 2
	case !ok:
		log.Printf("FAIL (daemon logs and verdict in %s)", dir)
		return 1
	}
	log.Printf("PASS (verdict in %s)", dir)
	return 0
}
