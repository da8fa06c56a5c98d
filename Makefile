GO ?= go

.PHONY: all build test race vet lint lint-json chaos adversary proc-chaos proc-chaos-extended storage-chaos storage-chaos-extended bench bench-e2e bench-snapshot bench-snapshot-full

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The concurrency regression gate: the trial-parallel experiment engine,
# the scope cache (topology.ReachCache), the determinism tests, and one
# Directory driven from six goroutines at once, under the race detector.
# The last runs again at three core counts: how its callers interleave
# depends on how many of them run at a time. So does the datagram retention
# test, since receivers share HandleBatch's pooled decode scratch, the send
# contract tests, since arena chunks pass from one flush to the next and
# flushes nest or run on other goroutines, and the scope cache's concurrent
# tests, since a hit reads a record that a miss publishes without a lock.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 1,2,4 -count 3 -run 'TestDirectoryConcurrentUse|TestDirectoryRetainsNothingFromDatagrams|TestSendContract' .
	$(GO) test -race -cpu 1,2,4 -count 3 -run 'TestReachCache.*(Concurrent|UnderRace)' ./internal/topology

vet:
	$(GO) vet ./...

# The determinism & concurrency gate: runs every analyzer registered in
# internal/analysis (detrand, maporder, lockscope, looplock, errdrop,
# metricname, atomicfield, unused) over the module — new analyzers are
# picked up automatically. Nonzero exit on any
# finding; see DESIGN.md §9 and §14 for the rules and the waiver syntax.
# LINTFLAGS passes extra mclint flags through (CI uses
# LINTFLAGS=-format=github for inline PR annotations).
lint:
	$(GO) run ./cmd/mclint $(LINTFLAGS)

# Machine-readable diagnostics for tooling (JSON array on stdout).
lint-json:
	$(GO) run ./cmd/mclint -json

# The fault-injection convergence gate: directory fleets under loss,
# duplication, corruption, reordering, and partition/heal cycles must
# converge, stay clash-free, and replay deterministically from their
# seeds (DESIGN.md §10) — the flagship, clash-termination,
# silenced-agent and scoped schedules, and mcchaos's quick and extended
# schedules run in process for seeds 1-20 (TestChaosSchedules) — and,
# first, the fault model those schedules draw their fates from and the
# fabric (des.Net, des.Fleet) that applies them. Runs under the race
# detector; wall time is small because the harness uses virtual time.
# Last, the resolution/discovery golden, the other recorded digest of
# des.Net's delivery order (without -race: it reruns both experiments,
# 0.25 s plain).
chaos:
	$(GO) test -race -count=1 ./internal/fault ./internal/des
	$(GO) test -race -count=1 -run TestChaos ./internal/chaos
	$(GO) test -count=1 -run TestResolutionDiscoveryGolden ./internal/experiments

# The adversarial resilience gate: hostile agents (flooder, poisoner,
# clash-forger, replayer, delete-forger) against a budget-bounded fleet.
# Honest sessions must survive, no cache may exceed its budget, the fleet
# must re-converge once the attack stops, and hostile runs must replay
# field-identically from their seeds (DESIGN.md §11).
adversary:
	$(GO) test -race -count=1 -run TestAdversary ./internal/chaos

# The process-level chaos gate: real sdrd daemons wired through the
# deterministic UDP fault relay, driven by the mcchaos orchestrator —
# flash crowds, SIGKILL+restart from checkpoint, partition/heal — with
# race-built binaries; the verdict must equal the in-process run's for
# the seed (DESIGN.md §15). Quick tier, about half a minute of wall time.
proc-chaos:
	$(GO) test -count=1 -run TestProcChaosQuick ./cmd/mcchaos

# Nightly tier: the extended schedule (bigger crowd, SIGSTOP freeze,
# longer partition, rougher links), same seed-replay contract.
# PROC_CHAOS_ARTIFACTS, when set, collects daemon logs and verdicts.
proc-chaos-extended:
	PROC_CHAOS_EXTENDED=1 $(GO) test -count=1 -timeout 20m -run TestProcChaos ./cmd/mcchaos

# The storage-fault gate: the crash-point torture harness enumerates a
# simulated crash after every VFS operation of a save/append/compact
# script (under each crash mode), plus the seeded fault soak and the
# FaultFS replay-identity check — recovery must always land on a valid
# pre- or post-op state and acked appends must never be lost
# (DESIGN.md §16). Quick tier, seconds of wall time.
storage-chaos:
	$(GO) test -race -count=1 -run 'TestCrashPoint|TestFaultSoak|TestFaultFSDeterministicReplay|TestMemFSCrashDurability' ./internal/storage

# Nightly tier: the extended crash-point sweep (longer op script, more
# seeds, all crash modes) and the kill -9 journal e2e.
storage-chaos-extended:
	STORAGE_CHAOS_EXTENDED=1 $(GO) test -race -count=1 -timeout 20m -run 'TestCrashPoint|TestFaultSoak' ./internal/storage
	$(GO) test -count=1 -timeout 10m -run TestSdrdKillMidJournal .

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# The repo's end-to-end benchmark (BENCHMARK.json, benchmark/README.md):
# four seeded workloads replayed against Directory and the occupancy
# simulator, every metric printed by name. Exits nonzero when a workload
# reports correct=false (an outcome fingerprint moved) or a failed op.
# Both seeds with recorded fingerprints run — 1998 and the held-out 7 — so
# a change of protocol behaviour cannot pass by matching one of them.
bench-e2e:
	bash benchmark/run.sh --workload all --seed 1998 --seconds 8
	bash benchmark/run.sh --workload all --seed 7 --seconds 8

# Refresh BENCH.json: wall time per figure at quick scale plus the
# allocation hot-path micro-benchmarks. Commit the result to record the
# perf trajectory (see DESIGN.md "Performance").
bench-snapshot: build
	$(GO) run ./cmd/mcbench -experiment fig5,fig12 -json BENCH.json

# Refresh BENCH.json including the full tier: quick figures first, then
# the directory-scale occupancy sweep (25k/100k sessions) merged onto
# the same file. Two invocations because -full also scales fig5/fig12
# to hour-long runs; the merge keeps one committed baseline carrying
# both tiers. Takes a few minutes (the 100k runs dominate).
bench-snapshot-full: bench-snapshot
	$(GO) run ./cmd/mcbench -experiment occupancy -full -json BENCH.json -merge
