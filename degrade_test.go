package sessiondir

import (
	"net/netip"
	"testing"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/transport"
)

// newBudgetedDirectory builds a directory with a MaxSessions budget large
// enough for level-2 degradation to engage (≥ degradeMinBudget).
func newBudgetedDirectory(t *testing.T, bus *transport.Bus, clk *fakeClock, maxSessions int) *Directory {
	t.Helper()
	d, err := New(Config{
		Origin:      netip.MustParseAddr("10.0.0.1"),
		Transport:   bus.Endpoint(),
		Space:       mcast.SyntheticSpace(4096),
		Clock:       clk.Now,
		Seed:        99,
		MaxSessions: maxSessions,
		StaleAfter:  10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fillCache floods n distinct single-session origins at the directory.
func fillCache(t *testing.T, f *forge, space mcast.AddrSpace, n, base int) {
	t.Helper()
	for i := 0; i < n; i++ {
		o := netip.AddrFrom4([4]byte{10, 1, byte((base + i) >> 8), byte(base + i)})
		desc := peerDesc(o.String(), uint64(base+i+1), space, mcast.Addr(base+i), 127)
		f.send(sap.Announce, desc.Origin, desc)
	}
}

// TestDegradationTiers walks the occupancy thresholds: below 75% the
// directory is normal, at 75% it reports level 1, at 95% level 2.
func TestDegradationTiers(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d := newBudgetedDirectory(t, bus, clk, 100)
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(4096)

	if lvl := d.DegradationLevel(); lvl != 0 {
		t.Fatalf("empty cache: level %d, want 0", lvl)
	}
	fillCache(t, f, space, 74, 0)
	if lvl := d.DegradationLevel(); lvl != 0 {
		t.Fatalf("74/100 cached: level %d, want 0", lvl)
	}
	fillCache(t, f, space, 1, 74)
	if lvl := d.DegradationLevel(); lvl != 1 {
		t.Fatalf("75/100 cached: level %d, want 1", lvl)
	}
	fillCache(t, f, space, 20, 75)
	if lvl := d.DegradationLevel(); lvl != 2 {
		t.Fatalf("95/100 cached: level %d, want 2", lvl)
	}
}

// TestDegradationNoBudgetNoTiers: without MaxSessions there is nothing to
// measure occupancy against, so the level stays 0 at any size.
func TestDegradationNoBudgetNoTiers(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d := newBudgetedDirectory(t, bus, clk, 0)
	f := newForge(t, bus)
	fillCache(t, f, mcast.SyntheticSpace(4096), 200, 0)
	if lvl := d.DegradationLevel(); lvl != 0 {
		t.Fatalf("unbounded cache: level %d, want 0", lvl)
	}
}

// TestDegradationSmallBudgetCapsAtLevelOne: a budget under
// degradeMinBudget never reaches level 2 — sampling admissions on a tiny
// cache would change outcomes without saving meaningful scan work.
func TestDegradationSmallBudgetCapsAtLevelOne(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d := newBudgetedDirectory(t, bus, clk, 8)
	f := newForge(t, bus)
	fillCache(t, f, mcast.SyntheticSpace(4096), 8, 0)
	if lvl := d.DegradationLevel(); lvl != 1 {
		t.Fatalf("full 8-entry cache: level %d, want 1 (level 2 needs budget ≥ %d)",
			lvl, degradeMinBudget)
	}
}

// TestDegradationSuppressesThirdPartyDefense: at level ≥ 1 the directory
// sheds phase-3 defenses and counts them, instead of re-announcing other
// sites' sessions.
func TestDegradationSuppressesThirdPartyDefense(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d := newBudgetedDirectory(t, bus, clk, 100)
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(4096)

	// Two distinct sessions announced on the same address: a clash between
	// two remote parties, which schedules a phase-3 defense here.
	s1 := peerDesc("10.9.0.1", 1, space, 2000, 127)
	s2 := peerDesc("10.9.0.2", 2, space, 2000, 127)
	f.send(sap.Announce, s1.Origin, s1)
	f.send(sap.Announce, s2.Origin, s2)

	// Push occupancy past level 1 before the defense timer fires.
	fillCache(t, f, space, 80, 100)
	if lvl := d.DegradationLevel(); lvl < 1 {
		t.Fatalf("level %d after fill, want ≥ 1", lvl)
	}

	// The uniform test delay distribution fires defenses ~1 s out.
	d.Step(clk.Advance(10 * time.Second))
	m := d.Metrics()
	if m.ClashDefensesThird != 0 {
		t.Fatalf("phase-3 defense sent under degradation: %+v", m)
	}
	if m.DegradedDefenses == 0 {
		t.Fatal("suppressed defense not counted in DegradedDefenses")
	}
}

// TestDegradationSamplesAdmissions: at level 2 only one in
// degradeAdmitSample unknown sessions runs the admission path; the rest
// are shed and counted, cheaper than an eviction scan each.
func TestDegradationSamplesAdmissions(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d := newBudgetedDirectory(t, bus, clk, 100)
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(4096)

	fillCache(t, f, space, 95, 0)
	// The packet path acts on the tier the last Step stored.
	d.Step(clk.Now())
	if lvl := d.DegradationLevel(); lvl != 2 {
		t.Fatalf("level %d after fill, want 2", lvl)
	}

	// 40 more newcomers at level 2: 3 of 4 shed without a scan.
	fillCache(t, f, space, 40, 200)
	m := d.Metrics()
	if m.DegradedLearns != 30 {
		t.Fatalf("DegradedLearns = %d after 40 newcomers at level 2, want 30", m.DegradedLearns)
	}
	// The sampled quarter still hit the normal admission gate (cache was
	// full of fresh state, so they were shed there, keeping the budget).
	if n := d.CacheSize(); n > 100 {
		t.Fatalf("cache size %d exceeds budget 100", n)
	}

	// Re-announcements of already-cached sessions are never sampled away.
	before := d.Metrics().DegradedLearns
	fillCache(t, f, space, 95, 0) // same origins/IDs as the initial fill
	if got := d.Metrics().DegradedLearns; got != before {
		t.Fatalf("re-announcements shed as unknown: DegradedLearns %d → %d", before, got)
	}
}

// TestScrapeDoesNotSteerAdmission: reading the overload tier — a metrics
// scrape, DegradationLevel — computes it and stores no tier, so a cache
// filled to level 2 between Steps admits exactly as it would unobserved:
// the packet path still acts on the last Step's tier (level 0 here), and
// the budget sheds the overflow. Nor does a read at a later instant, when
// the flood has gone stale, carry over to the next Step, which counts the
// cache at its own instant: the fresh-count memo that read re-armed is
// rescanned for a clock that stepped back.
func TestScrapeDoesNotSteerAdmission(t *testing.T) {
	const later = 10*time.Minute + time.Second // past StaleAfter
	run := func(scrape bool) (Metrics, Metrics) {
		bus := transport.NewBus()
		clk := newFakeClock()
		d := newBudgetedDirectory(t, bus, clk, 100)
		f := newForge(t, bus)
		space := mcast.SyntheticSpace(4096)
		fillCache(t, f, space, 95, 0)
		if scrape {
			d.Registry().Snapshot()
			if lvl := d.DegradationLevel(); lvl != 2 {
				t.Fatalf("95/100 fresh: level %d, want 2", lvl)
			}
		}
		fillCache(t, f, space, 40, 200)
		first := d.Metrics()

		d.Step(clk.Now())
		if scrape {
			clk.Advance(later)
			if lvl := d.DegradationLevel(); lvl != 0 {
				t.Fatalf("every entry stale: level %d, want 0", lvl)
			}
			d.Registry().Snapshot()
			clk.Advance(-later)
			if lvl := d.DegradationLevel(); lvl != 2 {
				t.Fatalf("back between Steps: level %d, want 2", lvl)
			}
			clk.Advance(later)
			d.Registry().Snapshot()
			clk.Advance(-later)
		}
		d.Step(clk.Now())
		fillCache(t, f, space, 40, 400)
		return first, d.Metrics()
	}
	quiet, quietLater := run(false)
	scraped, scrapedLater := run(true)
	if quiet.DegradedLearns != 0 || quiet.Shed != 35 {
		t.Fatalf("unobserved: DegradedLearns %d, Shed %d; want 0 and 35", quiet.DegradedLearns, quiet.Shed)
	}
	if quietLater.DegradedLearns != 30 {
		t.Fatalf("unobserved, after a Step at level 2: DegradedLearns %d, want 30", quietLater.DegradedLearns)
	}
	if scraped != quiet || scrapedLater != quietLater {
		t.Fatalf("a scrape changed what the directory admitted:\n scraped %+v then %+v\n quiet   %+v then %+v",
			scraped, scrapedLater, quiet, quietLater)
	}
}
