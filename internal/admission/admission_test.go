package admission

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

func origin(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i & 0xff)})
}

func t0() time.Time { return time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC) }

func TestAllowUnlimitedByDefault(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 1000; i++ {
		if !c.Allow(origin(1), t0()) {
			t.Fatal("zero config must admit everything")
		}
	}
	if n := c.Stats().Origins; n != 0 {
		t.Fatalf("unlimited limiter tracked %d origins, want 0", n)
	}
}

func TestAllowBucketDrainAndRefill(t *testing.T) {
	c := New(Config{OriginRate: 1, OriginBurst: 4, RNG: stats.NewRNG(1)})
	now := t0()
	admitted := 0
	for i := 0; i < 20; i++ {
		if c.Allow(origin(1), now) {
			admitted++
		}
	}
	if admitted == 0 || admitted > 4 {
		t.Fatalf("burst of 4 admitted %d packets", admitted)
	}
	// Ten quiet seconds refill the bucket to its (clamped) depth.
	now = now.Add(10 * time.Second)
	if !c.Allow(origin(1), now) {
		t.Fatal("refilled bucket denied a packet")
	}
	// A second origin has its own budget.
	if !c.Allow(origin(2), now) {
		t.Fatal("fresh origin denied its first packet")
	}
}

func TestAllowDeterministicReplay(t *testing.T) {
	run := func() []bool {
		c := New(Config{OriginRate: 2, OriginBurst: 8, RNG: stats.NewRNG(42)})
		now := t0()
		var out []bool
		for i := 0; i < 200; i++ {
			if i%5 == 0 {
				now = now.Add(time.Second)
			}
			out = append(out, c.Allow(origin(i%3), now))
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeds produced different admission sequences")
	}
}

func TestBucketTableBounded(t *testing.T) {
	c := New(Config{OriginRate: 1, RNG: stats.NewRNG(7)})
	now := t0()
	for i := 0; i < 3*maxOrigins; i++ {
		c.Allow(origin(i), now)
	}
	if got := c.Stats().Origins; got > maxOrigins {
		t.Fatalf("bucket table grew to %d origins under churn, budget %d", got, maxOrigins)
	}
	if c.Stats().BucketGCs == 0 {
		t.Fatal("the churn never reached the bound")
	}
}

func mkCand(key string, org netip.Addr, ttl mcast.TTL, heard time.Time, deleted bool) Candidate {
	return Candidate{Key: key, Origin: org, TTL: ttl, LastHeard: heard, Deleted: deleted}
}

func TestPlanNewStaleFirstThenTTL(t *testing.T) {
	now := t0().Add(time.Hour)
	c := New(Config{MaxSessions: 3, StaleAfter: 10 * time.Minute})
	cands := []Candidate{
		mkCand("b", origin(2), 127, now.Add(-20*time.Minute), false), // stale, wide scope
		mkCand("a", origin(1), 15, now.Add(-20*time.Minute), false),  // stale, narrow scope
		mkCand("c", origin(3), 127, now.Add(-time.Minute), false),    // fresh
	}
	d := c.PlanNew(cands, origin(4), now)
	if d.Outcome != Admit {
		t.Fatalf("outcome %v, want admit", d.Outcome)
	}
	// Both stale entries heard at the same instant: the narrower TTL goes.
	if len(d.Evict) != 1 || d.Evict[0] != "a" {
		t.Fatalf("evicted %v, want [a] (lowest TTL among equally stale)", d.Evict)
	}
}

func TestPlanNewTombstonesBeforeStale(t *testing.T) {
	now := t0().Add(time.Hour)
	c := New(Config{MaxSessions: 2, StaleAfter: 10 * time.Minute})
	cands := []Candidate{
		mkCand("stale", origin(1), 15, now.Add(-30*time.Minute), false),
		mkCand("tomb", origin(2), 127, now.Add(-time.Minute), true),
	}
	d := c.PlanNew(cands, origin(3), now)
	if d.Outcome != Admit || len(d.Evict) != 1 || d.Evict[0] != "tomb" {
		t.Fatalf("got %+v, want admit evicting [tomb]", d)
	}
}

func TestPlanNewShedsWhenAllFresh(t *testing.T) {
	now := t0()
	c := New(Config{MaxSessions: 2, StaleAfter: 10 * time.Minute})
	cands := []Candidate{
		mkCand("a", origin(1), 127, now, false),
		mkCand("b", origin(2), 127, now, false),
	}
	d := c.PlanNew(cands, origin(3), now)
	if d.Outcome != Shed || len(d.Evict) != 0 {
		t.Fatalf("got %+v, want shed with no evictions (drop-newest)", d)
	}
}

func TestPlanNewPerOriginQuota(t *testing.T) {
	now := t0()
	c := New(Config{MaxPerOrigin: 2, StaleAfter: 10 * time.Minute})
	cands := []Candidate{
		mkCand("x1", origin(1), 127, now, false),
		mkCand("x2", origin(1), 127, now, false),
		mkCand("y1", origin(2), 127, now, false),
	}
	if d := c.PlanNew(cands, origin(1), now); d.Outcome != DenyQuota {
		t.Fatalf("over-quota origin got %v, want deny-quota", d.Outcome)
	}
	if d := c.PlanNew(cands, origin(2), now); d.Outcome != Admit {
		t.Fatalf("under-quota origin got %v, want admit", d.Outcome)
	}
	// A stale entry of the same origin is reclaimed instead of denying.
	cands[0].LastHeard = now.Add(-time.Hour)
	d := c.PlanNew(cands, origin(1), now)
	if d.Outcome != Admit || len(d.Evict) != 1 || d.Evict[0] != "x1" {
		t.Fatalf("got %+v, want admit evicting [x1]", d)
	}
}

// PlanNewGrouped (kept for benchmark/) must be exactly equivalent to the
// flat planner on the concatenation of its groups.
func TestGroupedPlannersMatchFlat(t *testing.T) {
	now := time.Unix(50000, 0)
	mk := func(i int) Candidate {
		return Candidate{
			Key:       fmt.Sprintf("10.0.%d.%d/%d", i%7, i%13, i),
			Origin:    netip.AddrFrom4([4]byte{10, 0, byte(i % 7), byte(i % 13)}),
			TTL:       127,
			LastHeard: now.Add(-time.Duration(i%40) * time.Minute),
			Deleted:   i%11 == 0,
		}
	}
	var flat []Candidate
	var groups [][]Candidate
	for g := 0; g < 5; g++ {
		var grp []Candidate
		for i := 0; i < 30; i++ {
			c := mk(g*30 + i)
			grp = append(grp, c)
			flat = append(flat, c)
		}
		groups = append(groups, grp)
	}
	groups = append(groups, nil) // an empty group

	ctrl := New(Config{MaxSessions: 60, MaxPerOrigin: 12, StaleAfter: 10 * time.Minute})
	newOrigin := netip.AddrFrom4([4]byte{10, 0, 3, 9})
	want := ctrl.PlanNew(flat, newOrigin, now)
	got := ctrl.PlanNewGrouped(groups, newOrigin, now)
	if want.Outcome != got.Outcome || fmt.Sprint(want.Evict) != fmt.Sprint(got.Evict) {
		t.Fatalf("PlanNewGrouped diverges: %v/%v vs %v/%v", got.Outcome, got.Evict, want.Outcome, want.Evict)
	}
}
