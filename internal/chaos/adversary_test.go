package chaos

import (
	"testing"
	"time"

	"sessiondir"
	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
)

// honestKeys returns every key the honest fleet's own sessions carry.
func honestKeys(h *Harness) []string {
	var keys []string
	for _, a := range h.agents {
		for _, d := range a.Dir.OwnSessions() {
			keys = append(keys, d.Key())
		}
	}
	return keys
}

// assertHonestSurvive fails unless every live agent still knows every
// honest session (its own included).
func assertHonestSurvive(t *testing.T, h *Harness) {
	t.Helper()
	for _, a := range h.agents {
		if !a.Alive() {
			continue
		}
		for _, key := range honestKeys(h) {
			if !h.Knows(a.Index, key) {
				t.Errorf("agent %d lost honest session %s:\n%s",
					a.Index, key, h.Fingerprint(a.Index))
			}
		}
	}
}

// newHostileFleet builds a bounded fleet sized so that budget pressure is
// real: 4 agents × 2 sessions = 6 foreign honest sessions per cache,
// against a 16-entry budget. StaleAfter exceeds the 300 s steady
// re-announcement interval so honest state is never flood-evictable, and
// CacheTimeout is short enough that an attacker's sessions expire within
// a schedule once it goes quiet.
func newHostileFleet(t *testing.T, seed uint64) *Harness {
	t.Helper()
	h, err := New(Config{
		Agents: 4,
		Seed:   seed,
		Start:  chaosStart(),
		Dir: sessiondir.Config{
			Space:        mcast.SyntheticSpace(64),
			CacheTimeout: 600 * time.Second,
			MaxSessions:  16,
			MaxPerOrigin: 4,
			OriginRate:   5,
			OriginBurst:  40,
			StaleAfter:   400 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CreateSessions(2); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestAdversaryFlooderBoundedMemory: an origin-rotating flooder (so the
// per-origin quota alone cannot stop it) must not grow any cache past
// MaxSessions or displace honest sessions, and once it stops, its
// admitted sessions expire and the fleet converges back to exactly the
// honest session set.
func TestAdversaryFlooderBoundedMemory(t *testing.T) {
	h := newHostileFleet(t, 7001)
	adv := h.AddAdversary(AdversaryConfig{
		Kind:    Flooder,
		Rate:    20,
		Origins: 64,
		Start:   30 * time.Second,
		Stop:    330 * time.Second,
	})

	h.Run(nil, 1200*time.Second)

	if adv.Sent() == 0 {
		t.Fatal("flooder sent nothing; the schedule tested nothing")
	}
	for _, a := range h.agents {
		if n := a.Dir.CacheSize(); n > 16 {
			t.Errorf("agent %d cache grew to %d entries, budget 16", a.Index, n)
		}
		if m := a.Dir.Metrics(); m.Shed == 0 && m.QuotaDrops == 0 {
			t.Errorf("agent %d admitted the whole flood: %+v", a.Index, m)
		}
	}
	assertHonestSurvive(t, h)
	fp, ok, dissent := h.Converged()
	if !ok {
		t.Fatalf("fleet did not re-converge after flood; agents %v disagree with:\n%s", dissent, fp)
	}
	// Flood state has expired: the converged view is the honest set alone.
	if n := h.SessionCount(0); n != len(honestKeys(h)) {
		t.Fatalf("agent 0 knows %d sessions after flood expiry, want %d:\n%s",
			n, len(honestKeys(h)), h.Fingerprint(0))
	}
}

// TestAdversaryPoisonerAndDeleteForger: forged in-place mutations and
// spoofed deletions are counted and dropped — honest sessions keep their
// addresses, nothing is deleted, and no clash correction is triggered.
func TestAdversaryPoisonerAndDeleteForger(t *testing.T) {
	h := newHostileFleet(t, 7002)
	h.AddAdversary(AdversaryConfig{
		Kind:  Poisoner,
		Rate:  10,
		Start: 60 * time.Second,
		Stop:  360 * time.Second,
	})
	h.AddAdversary(AdversaryConfig{
		Kind:  DeleteForger,
		Rate:  10,
		Start: 60 * time.Second,
		Stop:  360 * time.Second,
	})

	// Let the fleet converge cleanly first so the adversaries have
	// something recorded to attack.
	h.Run(nil, 50*time.Second)
	before, ok, _ := h.Converged()
	if !ok {
		t.Fatal("fleet failed to converge before the attack")
	}
	changesBefore := h.TotalAddressChanges()

	h.Run(nil, 550*time.Second)

	var forgedReports, forgedDeletes uint64
	for _, a := range h.agents {
		m := a.Dir.Metrics()
		forgedReports += m.ForgedReports
		forgedDeletes += m.ForgedDeletes
	}
	if forgedReports == 0 {
		t.Error("no forged reports counted; the poisoner never bit")
	}
	if forgedDeletes == 0 {
		t.Error("no forged deletes counted; the delete-forger never bit")
	}
	if got := h.TotalAddressChanges(); got != changesBefore {
		t.Errorf("forged packets caused %d address changes", got-changesBefore)
	}
	assertHonestSurvive(t, h)
	after, ok, dissent := h.Converged()
	if !ok {
		t.Fatalf("fleet diverged under forgery; agents %v disagree", dissent)
	}
	if after != before {
		t.Fatalf("forgery mutated the converged view:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestAdversaryReplayerHarmless: byte-identical replays of recorded
// honest traffic must at worst refresh state — never resurrect old
// versions or re-trigger address changes.
func TestAdversaryReplayerHarmless(t *testing.T) {
	h := newHostileFleet(t, 7003)
	adv := h.AddAdversary(AdversaryConfig{
		Kind:  Replayer,
		Rate:  10,
		Start: 60 * time.Second,
		Stop:  500 * time.Second,
	})

	h.Run(nil, 50*time.Second)
	before, ok, _ := h.Converged()
	if !ok {
		t.Fatal("fleet failed to converge before the attack")
	}
	changesBefore := h.TotalAddressChanges()

	h.Run(nil, 750*time.Second)

	if adv.Sent() == 0 {
		t.Fatal("replayer sent nothing; it recorded no traffic")
	}
	if got := h.TotalAddressChanges(); got != changesBefore {
		t.Errorf("replays caused %d address changes", got-changesBefore)
	}
	assertHonestSurvive(t, h)
	after, ok, dissent := h.Converged()
	if !ok {
		t.Fatalf("fleet diverged under replay; agents %v disagree", dissent)
	}
	if after != before {
		t.Fatalf("replay mutated the converged view:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestAdversaryClashForgerConvergence: a squatter deliberately announcing
// at honest addresses forces the clash protocol to arbitrate against a
// hostile claimant. Honest sessions may legitimately move, but every one
// survives, the squat state expires once the adversary stops, and the
// fleet converges clash-free.
func TestAdversaryClashForgerConvergence(t *testing.T) {
	h := newHostileFleet(t, 7004)
	adv := h.AddAdversary(AdversaryConfig{
		Kind:  ClashForger,
		Rate:  2,
		Start: 60 * time.Second,
		Stop:  240 * time.Second,
	})

	h.Run(nil, 1200*time.Second)

	if adv.Sent() == 0 {
		t.Fatal("clash forger sent nothing; it recorded no traffic")
	}
	assertHonestSurvive(t, h)
	fp, ok, dissent := h.Converged()
	if !ok {
		t.Fatalf("fleet did not converge after squatting; agents %v disagree with:\n%s", dissent, fp)
	}
	if clashes := h.AddressClashes(); len(clashes) != 0 {
		t.Fatalf("honest agents still clash after the squatter left: %v", clashes)
	}
	if n := h.SessionCount(0); n != len(honestKeys(h)) {
		t.Fatalf("agent 0 knows %d sessions after squat expiry, want %d:\n%s",
			n, len(honestKeys(h)), h.Fingerprint(0))
	}
}

// runGauntlet is the all-kinds hostile schedule used for the determinism
// check: every adversary kind at once, under transport faults, against a
// bounded fleet.
func runGauntlet(t *testing.T, seed uint64) *Harness {
	t.Helper()
	h := newHostileFleet(t, seed)
	for _, kind := range []AdversaryKind{Flooder, Poisoner, ClashForger, Replayer, DeleteForger} {
		h.AddAdversary(AdversaryConfig{
			Kind:    kind,
			Rate:    6,
			Origins: 16,
			Start:   45 * time.Second,
			Stop:    400 * time.Second,
		})
	}
	schedule := []Event{
		{At: 90 * time.Second, Do: func(b Backend) { b.SetFaults(heavyFaults()) }},
		{At: 300 * time.Second, Do: func(b Backend) { b.SetFaults(fault.Profile{}) }},
	}
	h.Run(schedule, 1200*time.Second)
	return h
}

// TestAdversaryDeterministicReplay: a hostile run is still a pure
// function of its seed — every fingerprint, directory metric, fault
// counter, and adversary packet count replays field-identically.
func TestAdversaryDeterministicReplay(t *testing.T) {
	a := runGauntlet(t, 4242)
	b := runGauntlet(t, 4242)
	for i := range a.agents {
		if fa, fb := a.Fingerprint(i), b.Fingerprint(i); fa != fb {
			t.Fatalf("agent %d fingerprints differ between identical seeds:\n%s\nvs:\n%s", i, fa, fb)
		}
		if ma, mb := a.agents[i].Dir.Metrics(), b.agents[i].Dir.Metrics(); ma != mb {
			t.Fatalf("agent %d metrics differ:\n%+v\nvs:\n%+v", i, ma, mb)
		}
		if sa, sb := a.agents[i].Endpoint.Stats(), b.agents[i].Endpoint.Stats(); sa != sb {
			t.Fatalf("agent %d fault stats differ:\n%+v\nvs:\n%+v", i, sa, sb)
		}
	}
	for i := range a.advs {
		if sa, sb := a.advs[i].Sent(), b.advs[i].Sent(); sa != sb {
			t.Fatalf("adversary %d (%s) sent %d vs %d packets between identical seeds",
				i, a.advs[i].cfg.Kind, sa, sb)
		}
	}
	// And the gauntlet must still have ended converged and survivable.
	assertHonestSurvive(t, a)
	if _, ok, dissent := a.Converged(); !ok {
		t.Fatalf("gauntlet did not converge; agents %v disagree", dissent)
	}
}

// TestAdversaryWindowIsAbsolute: Start and Stop are measured from
// Config.Start, not from the latest Run call — a window that closed during
// one Run must not re-open in the next.
func TestAdversaryWindowIsAbsolute(t *testing.T) {
	h := newHostileFleet(t, 7005)
	adv := h.AddAdversary(AdversaryConfig{
		Kind:  Flooder,
		Rate:  3,
		Start: 60 * time.Second,
		Stop:  120 * time.Second,
	})
	h.Run(nil, 200*time.Second)
	first := adv.Sent()
	if first != 60*3 {
		t.Fatalf("sent %d packets in the 60 s window, want %d", first, 60*3)
	}
	h.Run(nil, 200*time.Second)
	if again := adv.Sent(); again != first {
		t.Fatalf("the window re-opened in the second Run: %d more packets", again-first)
	}
}
