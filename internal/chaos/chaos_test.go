package chaos

import (
	"fmt"
	"testing"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/session"
)

func chaosStart() time.Time {
	return time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
}

// heavyFaults is the flagship fault cocktail: 20% independent loss per
// receiver, frequent duplication, occasional single-bit corruption, and
// delays long enough (relative to the 1 s tick) to reorder packets across
// several ticks.
func heavyFaults() fault.Profile {
	return fault.Profile{
		Loss:      0.20,
		Duplicate: 0.15,
		Corrupt:   0.01,
		DelayMax:  1200 * time.Millisecond,
	}
}

// runFlagship runs the headline schedule: sessions announced cleanly, then
// heavy faults, a 2-minute partition into halves, heal, faults off, and a
// long quiet tail for soft state to converge. Returns the harness after
// the run.
func runFlagship(t *testing.T, seed uint64) *Harness {
	return runFlagshipTraced(t, seed, 0)
}

func runFlagshipTraced(t *testing.T, seed uint64, traceCap int) *Harness {
	t.Helper()
	h, err := New(Config{
		Agents:           8,
		Seed:             seed,
		Start:            chaosStart(),
		SpaceSize:        64,
		SessionsPerAgent: 2,
		TraceCap:         traceCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CreateSessions(); err != nil {
		t.Fatal(err)
	}
	schedule := []Event{
		{At: 10 * time.Second, Do: func(h *Harness) { h.SetFaults(heavyFaults()) }},
		{At: 60 * time.Second, Do: func(h *Harness) { h.Partition([]int{0, 1, 2, 3}, []int{4, 5, 6, 7}) }},
		{At: 180 * time.Second, Do: func(h *Harness) { h.Heal() }},
		{At: 240 * time.Second, Do: func(h *Harness) { h.ClearFaults() }},
	}
	h.Run(schedule, 600*time.Second)
	return h
}

func TestChaosConvergenceUnderLossDupPartition(t *testing.T) {
	h := runFlagship(t, 1998)

	fp, ok, dissent := h.Converged()
	if !ok {
		for _, i := range dissent {
			t.Logf("agent %d fingerprint:\n%s", i, h.Fingerprint(i))
		}
		t.Fatalf("caches did not converge; agents %v disagree with:\n%s", dissent, fp)
	}
	if clashes := h.AddressClashes(); len(clashes) != 0 {
		t.Fatalf("address clashes survived the run: %v", clashes)
	}
	// Every one of the 16 sessions must have survived 20% loss, the
	// partition, and corruption-induced discards.
	if n := h.SessionCount(0); n != 16 {
		t.Fatalf("agent 0 knows %d sessions, want 16:\n%s", n, h.Fingerprint(0))
	}
}

func TestChaosDeterministicReplay(t *testing.T) {
	a := runFlagship(t, 42)
	b := runFlagship(t, 42)
	for i := 0; i < 8; i++ {
		fa, fb := a.Fingerprint(i), b.Fingerprint(i)
		if fa != fb {
			t.Fatalf("agent %d diverged between identical runs:\n--- run 1:\n%s\n--- run 2:\n%s", i, fa, fb)
		}
		ma, mb := a.Agent(i).Dir.Metrics(), b.Agent(i).Dir.Metrics()
		if ma != mb {
			t.Fatalf("agent %d metrics diverged between identical runs:\nrun 1: %+v\nrun 2: %+v", i, ma, mb)
		}
		sa, sb := a.Agent(i).Endpoint.Stats(), b.Agent(i).Endpoint.Stats()
		if sa != sb {
			t.Fatalf("agent %d fault schedule diverged between identical runs:\nrun 1: %+v\nrun 2: %+v", i, sa, sb)
		}
	}
}

// TestChaosTraceReplayBitIdentical is the tracing determinism contract:
// attaching an event trace must not perturb a seeded run (recording draws
// no randomness and takes no time on the virtual clock), and the traces
// of two identical traced runs must match event for event.
func TestChaosTraceReplayBitIdentical(t *testing.T) {
	plain := runFlagship(t, 42)
	traced := runFlagshipTraced(t, 42, 8192)
	traced2 := runFlagshipTraced(t, 42, 8192)
	for i := 0; i < 8; i++ {
		fp, ft := plain.Fingerprint(i), traced.Fingerprint(i)
		if fp != ft {
			t.Fatalf("agent %d: tracing changed the run:\n--- untraced:\n%s\n--- traced:\n%s", i, fp, ft)
		}
		if mp, mt := plain.Agent(i).Dir.Metrics(), traced.Agent(i).Dir.Metrics(); mp != mt {
			t.Fatalf("agent %d: tracing changed the metrics:\nuntraced: %+v\ntraced:   %+v", i, mp, mt)
		}
		ea, eb := traced.Agent(i).Trace.Events(), traced2.Agent(i).Trace.Events()
		if len(ea) == 0 {
			t.Fatalf("agent %d recorded no trace events", i)
		}
		if len(ea) != len(eb) {
			t.Fatalf("agent %d trace lengths diverged: %d vs %d", i, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("agent %d trace event %d diverged:\nrun 1: %+v\nrun 2: %+v", i, j, ea[j], eb[j])
			}
		}
	}
	if plain.Agent(0).Trace != nil {
		t.Fatal("untraced run grew a trace")
	}
}

// TestChaosClashCorrectionTerminates creates sessions *inside* a
// partition, so both halves allocate from the same small space without
// hearing each other — the paper's partition-heal clash scenario — while
// duplicated and delayed clash reports try to re-trigger every reaction.
// Correction must converge to distinct addresses and then go quiet: the
// address-change counter stops moving (no livelock).
func TestChaosClashCorrectionTerminates(t *testing.T) {
	h, err := New(Config{
		Agents:    4,
		Seed:      7,
		Start:     chaosStart(),
		SpaceSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int, name string) {
		if _, err := h.Agent(i).Dir.CreateSession(&session.Description{
			Name: name,
			TTL:  127,
			Media: []session.Media{
				{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"},
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	schedule := []Event{
		{At: 5 * time.Second, Do: func(h *Harness) { h.Partition([]int{0, 1}, []int{2, 3}) }},
		// Allocate blind on both sides of the split: 12 sessions into 16
		// addresses guarantees overlap between the halves.
		{At: 10 * time.Second, Do: func(h *Harness) {
			for i := 0; i < 4; i++ {
				for j := 0; j < 3; j++ {
					mk(i, fmt.Sprintf("split-%d-%d", i, j))
				}
			}
		}},
		// Duplicated, delayed clash reports stress the termination
		// argument: a stale or repeated report must not re-trigger moves.
		{At: 20 * time.Second, Do: func(h *Harness) {
			h.SetFaults(fault.Profile{
				Duplicate: 0.5,
				DelayMax:  2 * time.Second,
			})
		}},
		{At: 60 * time.Second, Do: func(h *Harness) { h.Heal() }},
		{At: 240 * time.Second, Do: func(h *Harness) { h.ClearFaults() }},
	}
	h.Run(schedule, 600*time.Second)

	if clashes := h.AddressClashes(); len(clashes) != 0 {
		t.Fatalf("clashes unresolved after heal: %v", clashes)
	}
	if h.TotalAddressChanges() == 0 {
		t.Fatal("no address changes at all: the schedule failed to force a clash")
	}
	// Quiet-window check: another 300 virtual seconds with no faults must
	// produce zero further moves, or correction is live-locked.
	before := h.TotalAddressChanges()
	h.Run(nil, 300*time.Second)
	if after := h.TotalAddressChanges(); after != before {
		t.Fatalf("address changes still occurring after convergence: %d -> %d", before, after)
	}
	if _, ok, dissent := h.Converged(); !ok {
		t.Fatalf("caches did not converge after clash correction; dissent: %v", dissent)
	}
}

// TestChaosSilencedAgentExpires kills one agent mid-run and checks the
// soft-state eviction promise: its sessions disappear from every
// survivor's cache once the cache timeout passes without a re-announcement.
func TestChaosSilencedAgentExpires(t *testing.T) {
	h, err := New(Config{
		Agents:           4,
		Seed:             11,
		Start:            chaosStart(),
		SpaceSize:        64,
		SessionsPerAgent: 1,
		CacheTimeout:     300 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CreateSessions(); err != nil {
		t.Fatal(err)
	}
	victim := h.Agent(3).Dir.OwnSessions()
	if len(victim) != 1 {
		t.Fatalf("agent 3 owns %d sessions", len(victim))
	}
	victimKey := victim[0].Key()

	schedule := []Event{
		{At: 10 * time.Second, Do: func(h *Harness) {
			h.SetFaults(fault.Profile{Loss: 0.2})
		}},
		{At: 60 * time.Second, Do: func(h *Harness) { h.Kill(3) }},
		{At: 120 * time.Second, Do: func(h *Harness) { h.ClearFaults() }},
	}
	h.Run(schedule, 900*time.Second)

	for i := 0; i < 3; i++ {
		if h.Knows(i, victimKey) {
			t.Fatalf("agent %d still caches the silenced agent's session %s", i, victimKey)
		}
		if n := h.SessionCount(i); n != 3 {
			t.Fatalf("agent %d knows %d sessions, want 3 (survivors only):\n%s", i, n, h.Fingerprint(i))
		}
	}
	if _, ok, dissent := h.Converged(); !ok {
		t.Fatalf("survivors did not converge; dissent: %v", dissent)
	}
}
