package sessiondir

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// fakeClock is a shared, manually advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// eventLog collects directory events thread-safely.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

func (l *eventLog) count(k EventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, e := range l.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func newDirectory(t *testing.T, bus *transport.Bus, clk *fakeClock, origin string, spaceSize uint32, seed uint64, log *eventLog) (*Directory, *transport.BusEndpoint) {
	t.Helper()
	ep := bus.Endpoint()
	cfg := Config{
		Origin:    netip.MustParseAddr(origin),
		Transport: ep,
		Space:     mcast.SyntheticSpace(spaceSize),
		Allocator: allocator.NewAdaptive(spaceSize, allocator.AdaptiveConfig{GapFraction: 0.2}),
		Clock:     clk.Now,
		Seed:      seed,
		// Tight, deterministic clash parameters for tests.
		Delay: clash.NewUniformDelay(1000, 1001),
	}
	if log != nil {
		cfg.OnEvent = log.add
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, ep
}

func testDesc(name string, ttl mcast.TTL) *session.Description {
	return &session.Description{
		Name:  name,
		TTL:   ttl,
		Media: []session.Media{{Type: "audio", Port: 30000, Proto: "RTP/AVP", Format: "0"}},
	}
}

// oneDgram is a batch of one datagram.
func oneDgram(data []byte, scope mcast.TTL) []transport.Datagram {
	return []transport.Datagram{{Data: data, Scope: scope}}
}

func TestDirectoryConfigValidation(t *testing.T) {
	bus := transport.NewBus()
	if _, err := New(Config{Transport: bus.Endpoint()}); err == nil {
		t.Fatal("missing origin accepted")
	}
	if _, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1")}); err == nil {
		t.Fatal("missing transport accepted")
	}
	if _, err := New(Config{
		Origin:    netip.MustParseAddr("2001:db8::1"),
		Transport: bus.Endpoint(),
	}); err == nil {
		t.Fatal("IPv6 origin accepted")
	}
	if _, err := New(Config{
		Origin:    netip.MustParseAddr("10.0.0.1"),
		Transport: bus.Endpoint(),
		Space:     mcast.SyntheticSpace(100),
		Allocator: allocator.NewRandom(50), // size mismatch
	}); err == nil {
		t.Fatal("allocator/space size mismatch accepted")
	}
}

func TestDirectoryAnnounceAndLearn(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	logB := &eventLog{}
	a, _ := newDirectory(t, bus, clk, "10.0.0.1", 256, 1, nil)
	b, _ := newDirectory(t, bus, clk, "10.0.0.2", 256, 2, logB)
	defer a.Close()
	defer b.Close()

	desc, err := a.CreateSession(testDesc("seminar", 127))
	if err != nil {
		t.Fatal(err)
	}
	if !mcast.IsMulticast(desc.Group) {
		t.Fatalf("allocated group %s not multicast", desc.Group)
	}
	// The bus is synchronous: B has already learned it.
	found := false
	for _, s := range b.Sessions() {
		if s.Key() == desc.Key() && s.Group == desc.Group {
			found = true
		}
	}
	if !found {
		t.Fatalf("B did not learn the session; knows %v", b.Sessions())
	}
	if logB.count(EventSessionLearned) != 1 {
		t.Fatalf("learn events = %d", logB.count(EventSessionLearned))
	}
	if len(a.OwnSessions()) != 1 {
		t.Fatal("A does not own its session")
	}
}

func TestDirectoryAllocationsAvoidKnownAddresses(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	a, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 3, nil)
	b, _ := newDirectory(t, bus, clk, "10.0.0.2", 64, 4, nil)
	defer a.Close()
	defer b.Close()

	seen := map[netip.Addr]string{}
	for i := 0; i < 20; i++ {
		var d *Directory
		if i%2 == 0 {
			d = a
		} else {
			d = b
		}
		desc, err := d.CreateSession(testDesc("s", 127))
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if prev, dup := seen[desc.Group]; dup {
			t.Fatalf("address %s reused (%s then %s)", desc.Group, prev, desc.Key())
		}
		seen[desc.Group] = desc.Key()
	}
}

func TestDirectoryReannouncementSchedule(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	logA := &eventLog{}
	a, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 5, logA)
	defer a.Close()
	if _, err := a.CreateSession(testDesc("s", 63)); err != nil {
		t.Fatal(err)
	}
	if got := logA.count(obs.TraceAnnounce); got != 1 {
		t.Fatalf("initial announcements = %d", got)
	}
	// 5 s back-off: stepping just before does nothing, just after fires.
	a.Step(clk.Advance(4 * time.Second))
	if got := logA.count(obs.TraceAnnounce); got != 1 {
		t.Fatalf("early step announced: %d", got)
	}
	a.Step(clk.Advance(2 * time.Second))
	if got := logA.count(obs.TraceAnnounce); got != 2 {
		t.Fatalf("after 6 s: %d announcements", got)
	}
	// Next interval doubles to 10 s.
	a.Step(clk.Advance(8 * time.Second))
	if got := logA.count(obs.TraceAnnounce); got != 2 {
		t.Fatalf("after 8 more seconds: %d", got)
	}
	a.Step(clk.Advance(3 * time.Second))
	if got := logA.count(obs.TraceAnnounce); got != 3 {
		t.Fatalf("after 11 more seconds: %d", got)
	}
}

func TestDirectoryClashResolutionRecentMoves(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	logA, logB := &eventLog{}, &eventLog{}
	a, epA := newDirectory(t, bus, clk, "10.0.0.1", 2, 6, logA)
	b, epB := newDirectory(t, bus, clk, "10.0.0.2", 2, 7, logB)
	defer a.Close()
	defer b.Close()

	// Partition the bus: nothing is delivered.
	bus.SetPolicy(func(from, to int, _ mcast.TTL) bool { return false })
	_ = epA
	_ = epB

	// B announces first (long-standing); A announces 60 s later (recent).
	descB, err := b.CreateSession(testDesc("old", 127))
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(60 * time.Second)
	descA, err := a.CreateSession(testDesc("new", 127))
	if err != nil {
		t.Fatal(err)
	}
	if descA.Group != descB.Group {
		t.Fatalf("test setup: expected identical allocations in partition, got %s vs %s",
			descA.Group, descB.Group)
	}

	// Heal the partition; drive A past its back-off so it re-announces.
	bus.SetPolicy(nil)
	a.Step(clk.Advance(6 * time.Second))
	// Chain (synchronous bus): A re-announces → B defends (phase 1) →
	// A hears the defense, is recent (announced 6 s ago) → moves (phase 2).

	if got := logB.count(obs.TraceDefendOwn); got != 1 {
		t.Fatalf("B defend events = %d", got)
	}
	if got := logA.count(EventAddressChanged); got != 1 {
		t.Fatalf("A move events = %d", got)
	}
	newA := a.OwnSessions()[0]
	curB := b.OwnSessions()[0]
	if newA.Group == curB.Group {
		t.Fatalf("clash not resolved: both at %s", newA.Group)
	}
	if curB.Group != descB.Group {
		t.Fatalf("long-standing session moved from %s to %s", descB.Group, curB.Group)
	}
	if newA.Version != descA.Version+1 {
		t.Fatalf("moved session version %d, want %d", newA.Version, descA.Version+1)
	}
}

func TestDirectoryThirdPartyDefense(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	logB, logC := &eventLog{}, &eventLog{}
	a, epA := newDirectory(t, bus, clk, "10.0.0.1", 2, 8, nil)
	b, _ := newDirectory(t, bus, clk, "10.0.0.2", 2, 9, logB)
	c, epC := newDirectory(t, bus, clk, "10.0.0.3", 2, 10, logC)
	defer a.Close()
	defer b.Close()
	defer c.Close()

	// Phase 1: A's announcement reaches only C (B is partitioned off).
	bus.SetPolicy(func(from, to int, _ mcast.TTL) bool {
		return from == epA.ID() && to == epC.ID()
	})
	descA, err := a.CreateSession(testDesc("orphan", 127))
	if err != nil {
		t.Fatal(err)
	}
	// A crashes: no more announcements or defenses from it.
	a.Close()

	// Phase 2: B comes up, can't see anyone, allocates the same address.
	clk.Advance(10 * time.Minute)
	descB, err := b.CreateSession(testDesc("squatter", 127))
	if err != nil {
		t.Fatal(err)
	}
	if descB.Group != descA.Group {
		t.Fatalf("test setup: wanted a squat, got %s vs %s", descB.Group, descA.Group)
	}

	// Phase 3: heal everything except A (still down). B re-announces; C
	// sees the clash with its cached copy of A's session and schedules a
	// third-party defense (uniform delay ≈1 s in this config).
	bus.SetPolicy(nil)
	b.Step(clk.Advance(6 * time.Second)) // B's 5 s back-off fires
	if got := logC.count(EventDefendedOther); got != 0 {
		t.Fatalf("C defended before its delay: %d", got)
	}
	c.Step(clk.Advance(2 * time.Second)) // past C's ~1 s defense delay
	if got := logC.count(EventDefendedOther); got != 1 {
		t.Fatalf("C defense events = %d", got)
	}
	// C's defense re-announced A's session; B (recent) must have moved.
	if got := logB.count(EventAddressChanged); got != 1 {
		t.Fatalf("B move events = %d", got)
	}
	if b.OwnSessions()[0].Group == descA.Group {
		t.Fatal("B still squatting on A's address")
	}
}

func TestDirectoryWithdraw(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	logB := &eventLog{}
	a, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 11, nil)
	b, _ := newDirectory(t, bus, clk, "10.0.0.2", 64, 12, logB)
	defer a.Close()
	defer b.Close()

	desc, err := a.CreateSession(testDesc("temp", 63))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sessions()) != 1 {
		t.Fatal("B missed the announcement")
	}
	if err := a.WithdrawSession(desc.Key()); err != nil {
		t.Fatal(err)
	}
	if len(b.Sessions()) != 0 {
		t.Fatalf("B still lists %v after deletion", b.Sessions())
	}
	if len(a.OwnSessions()) != 0 {
		t.Fatal("A still owns the withdrawn session")
	}
	if err := a.WithdrawSession("not-ours"); err == nil {
		t.Fatal("withdrawing an unknown session succeeded")
	}

	// A closed directory withdraws nothing: no deletion goes out, and the
	// session stays in its peers' caches until it expires.
	kept, err := a.CreateSession(testDesc("kept", 63))
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	if err := a.WithdrawSession(kept.Key()); err == nil {
		t.Fatal("a closed directory withdrew a session")
	}
	if got := a.Metrics().DeletionsSent; got != 1 {
		t.Fatalf("%d deletions sent, want only the one before Close", got)
	}
	if len(b.Sessions()) != 1 || logB.count(EventSessionLearned) != 2 {
		t.Fatalf("B lists %v after a closed directory's withdrawal", b.Sessions())
	}
}

func TestDirectoryCacheExpiry(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	logB := &eventLog{}
	ep := bus.Endpoint()
	b, err := New(Config{
		Origin:       netip.MustParseAddr("10.0.0.2"),
		Transport:    ep,
		Space:        mcast.SyntheticSpace(64),
		Clock:        clk.Now,
		CacheTimeout: 10 * time.Minute,
		OnEvent:      logB.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 13, nil)
	defer a.Close()

	if _, err := a.CreateSession(testDesc("fading", 63)); err != nil {
		t.Fatal(err)
	}
	if len(b.Sessions()) != 1 {
		t.Fatal("not learned")
	}
	a.Close() // A stops re-announcing.
	b.Step(clk.Advance(11 * time.Minute))
	if len(b.Sessions()) != 0 {
		t.Fatalf("stale session survived expiry: %v", b.Sessions())
	}
	if logB.count(obs.TraceExpire) != 1 {
		t.Fatalf("expiry events = %d", logB.count(obs.TraceExpire))
	}
}

func TestDirectoryClosedRefusesWork(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	a, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 14, nil)
	a.Close()
	if _, err := a.CreateSession(testDesc("late", 63)); err == nil {
		t.Fatal("closed directory created a session")
	}
}

// TestSameOriginCreatesShareAKeyWithinAnIDTick: a created session's ID is
// its create time in 2^16 ns ticks plus a per-directory counter, so two
// directories on one origin whose first creates fall in one tick make
// one session key. Each then takes the other's announcements for forged
// copies of its own session and never lists it. Daemons that share a
// host need distinct origins.
func TestSameOriginCreatesShareAKeyWithinAnIDTick(t *testing.T) {
	const tick = 1 << 16 // ns
	for _, c := range []struct {
		origins [2]string
		gap     time.Duration
		shared  bool
	}{
		{[2]string{"10.0.0.1", "10.0.0.1"}, 0, true},
		{[2]string{"10.0.0.1", "10.0.0.1"}, 30 * time.Microsecond, true},
		{[2]string{"10.0.0.1", "10.0.0.1"}, 70 * time.Microsecond, false},
		{[2]string{"10.0.0.1", "10.0.0.1"}, time.Millisecond, false},
		{[2]string{"10.0.0.1", "10.0.0.2"}, 0, false},
	} {
		bus := transport.NewBus()
		clk := newFakeClock()
		clk.Advance(-time.Duration(clk.Now().UnixNano() % tick)) // the start of a tick
		a, _ := newDirectory(t, bus, clk, c.origins[0], 256, 1, nil)
		b, _ := newDirectory(t, bus, clk, c.origins[1], 256, 2, nil)
		sa, err := a.CreateSession(testDesc("alpha", 127))
		if err != nil {
			t.Fatal(err)
		}
		clk.Advance(c.gap)
		sb, err := b.CreateSession(testDesc("beta", 127))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // each re-announces to the other
			now := clk.Advance(10 * time.Second)
			a.Step(now)
			b.Step(now)
		}
		if shared := sa.Key() == sb.Key(); shared != c.shared {
			t.Errorf("origins %v, creates %v apart: keys %q and %q, want shared=%v", c.origins, c.gap, sa.Key(), sb.Key(), c.shared)
		}
		want, forged := 2, false
		if c.shared {
			want, forged = 1, true
		}
		for _, d := range []*Directory{a, b} {
			if n := len(d.Sessions()); n != want {
				t.Errorf("origins %v, creates %v apart: a directory lists %d sessions, want %d", c.origins, c.gap, n, want)
			}
			if m := d.Metrics(); (m.ForgedReports > 0) != forged {
				t.Errorf("origins %v, creates %v apart: %d forged reports", c.origins, c.gap, m.ForgedReports)
			}
		}
		a.Close()
		b.Close()
	}
}
