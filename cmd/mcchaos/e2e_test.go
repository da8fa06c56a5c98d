//go:build unix

package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// Process-level chaos e2e: build sdrd and mcchaos with the race
// detector, run the quick schedule twice with one seed, and require
// both runs to pass with byte-identical verdict logs — the seed-replay
// contract across real process boundaries.

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

// TestProcChaosQuickSeedReplay is the acceptance gate: a 4-daemon fleet
// under -race survives SIGKILL+restart and a partition/heal, and two
// same-seed runs produce identical verdict logs.
func TestProcChaosQuickSeedReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos quick tier takes ~1 min; skipped in -short")
	}
	sdrd, mcchaos := builtChaos(t)
	first := runChaos(t, sdrd, mcchaos, "quick", 41)
	second := runChaos(t, sdrd, mcchaos, "quick", 41)
	if string(first) != string(second) {
		t.Fatalf("same-seed verdicts differ:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// TestProcChaosExtended runs the nightly schedule; gated by env because
// it takes several minutes under the race detector.
func TestProcChaosExtended(t *testing.T) {
	if os.Getenv("PROC_CHAOS_EXTENDED") == "" {
		t.Skip("set PROC_CHAOS_EXTENDED=1 to run the nightly chaos tier")
	}
	sdrd, mcchaos := builtChaos(t)
	first := runChaos(t, sdrd, mcchaos, "extended", 41)
	second := runChaos(t, sdrd, mcchaos, "extended", 41)
	if string(first) != string(second) {
		t.Fatalf("same-seed verdicts differ:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}
