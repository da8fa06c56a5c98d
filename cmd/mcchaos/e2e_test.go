//go:build unix

package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"sessiondir/internal/chaos"
)

// Process-level chaos e2e: build sdrd and mcchaos with the race
// detector, run a schedule once for a seed, and require the run to pass
// with the verdict log the in-process backend writes for that seed. The
// verdict is then a function of the seed alone, so two process runs with
// one seed agree too — the seed-replay contract across real process
// boundaries.

var (
	chaosBuildOnce sync.Once
	chaosSdrd      string
	chaosBin       string
	chaosBuildErr  error
)

func builtChaos(t *testing.T) (sdrd, mcchaos string) {
	t.Helper()
	chaosBuildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mcchaos-e2e-")
		if err != nil {
			chaosBuildErr = err
			return
		}
		chaosSdrd = filepath.Join(dir, "sdrd")
		chaosBin = filepath.Join(dir, "mcchaos")
		for bin, pkg := range map[string]string{chaosSdrd: "../sdrd", chaosBin: "."} {
			out, err := exec.Command("go", "build", "-race", "-o", bin, pkg).CombinedOutput()
			if err != nil {
				chaosBuildErr = fmt.Errorf("go build -race %s: %v\n%s", pkg, err, out)
				return
			}
		}
	})
	if chaosBuildErr != nil {
		t.Fatal(chaosBuildErr)
	}
	return chaosSdrd, chaosBin
}

// runChaos executes one mcchaos run and returns its verdict log.
// Artifacts (daemon logs, caches, verdict) live in a test temp dir, or
// under PROC_CHAOS_ARTIFACTS when set so CI can upload them on failure.
func runChaos(t *testing.T, sdrd, mcchaos, schedule string, seed uint64) []byte {
	t.Helper()
	artifacts := artifactsDir(t, schedule, seed)
	cmd := exec.Command(mcchaos,
		"-sdrd", sdrd,
		"-schedule", schedule,
		"-seed", fmt.Sprint(seed),
		"-artifacts", artifacts,
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		dumpDaemonLogs(t, artifacts)
		t.Fatalf("mcchaos -schedule %s -seed %d: %v\n%s", schedule, seed, err, out)
	}
	verdict, err := os.ReadFile(filepath.Join(artifacts, "verdict.log"))
	if err != nil {
		t.Fatal(err)
	}
	return verdict
}

var artifactSeq int

func artifactsDir(t *testing.T, schedule string, seed uint64) string {
	t.Helper()
	root := os.Getenv("PROC_CHAOS_ARTIFACTS")
	if root == "" {
		return t.TempDir()
	}
	artifactSeq++
	dir := filepath.Join(root, fmt.Sprintf("%s-seed%d-run%d", schedule, seed, artifactSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

func dumpDaemonLogs(t *testing.T, artifacts string) {
	t.Helper()
	logs, _ := filepath.Glob(filepath.Join(artifacts, "daemon-*.log"))
	for _, p := range logs {
		if b, err := os.ReadFile(p); err == nil {
			t.Logf("%s:\n%s", filepath.Base(p), b)
		}
	}
}

// matchesInProcess runs schedule for seed with mcchaos and in process,
// and requires the process run to pass with the in-process verdict.
func matchesInProcess(t *testing.T, schedule string, seed uint64) {
	t.Helper()
	sdrd, mcchaos := builtChaos(t)
	got := runChaos(t, sdrd, mcchaos, schedule, seed)
	sc, _ := chaos.ScheduleNamed(schedule)
	h, err := chaos.InProcess(4, seed)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := sc.Run(h, 4, seed, &want, t.Logf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("process verdict differs from the in-process one:\n--- mcchaos ---\n%s--- in process ---\n%s", got, want.Bytes())
	}
}

// TestProcChaosQuickSeedReplay is the acceptance gate: a 4-daemon fleet
// under -race survives SIGKILL+restart and a partition/heal, with the
// verdict the in-process run of the seed writes.
func TestProcChaosQuickSeedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos quick tier takes ~30 s; skipped in -short")
	}
	matchesInProcess(t, "quick", 41)
}

// TestProcChaosExtended runs the nightly schedule; gated by env because
// it takes minutes under the race detector.
func TestProcChaosExtended(t *testing.T) {
	if os.Getenv("PROC_CHAOS_EXTENDED") == "" {
		t.Skip("set PROC_CHAOS_EXTENDED=1 to run the nightly chaos tier")
	}
	matchesInProcess(t, "extended", 41)
}
