package announce

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"sessiondir/internal/session"
)

// heard is what a listener reads of d: its summary, and the payload it
// arrives as.
func heard(d *session.Description) (session.Summary, []byte) {
	payload, err := d.MarshalSDP()
	if err != nil {
		panic(err)
	}
	return d.Summary(), payload
}

// observe is ObserveHeard of d's payload, with the given digest.
func observe(c *Cache, d *session.Description, digest uint64, now time.Time) (*Entry, bool) {
	s, payload := heard(d)
	return c.ObserveHeard(d.Key(), s, payload, digest, now)
}

// restore is Restore of d's payload, with the given digest.
func restore(c *Cache, d *session.Description, digest uint64, first, last, now time.Time) bool {
	s, payload := heard(d)
	return c.Restore(s, payload, digest, first, last, now)
}

func desc(id uint64, version uint64) *session.Description {
	return &session.Description{
		ID:      id,
		Version: version,
		Origin:  netip.MustParseAddr("10.0.0.1"),
		Name:    "s",
		Group:   netip.MustParseAddr("224.2.128.1"),
		TTL:     127,
		Media:   []session.Media{{Type: "audio", Port: 1000, Proto: "RTP/AVP", Format: "0"}},
	}
}

func TestSteadyInterval(t *testing.T) {
	// Few sessions: floor applies.
	if got := SteadyInterval(100, DefaultBandwidthBps); got != MinInterval {
		t.Fatalf("small: %v", got)
	}
	// 1 MB of ads at 4000 bps = 2000 s.
	if got := SteadyInterval(1000000, DefaultBandwidthBps); got != 2000*time.Second {
		t.Fatalf("large: %v", got)
	}
	// Defaults for bad inputs.
	if got := SteadyInterval(-5, 0); got != MinInterval {
		t.Fatalf("bad input: %v", got)
	}
}

func TestBackoffSchedule(t *testing.T) {
	b := DefaultBackoff(600 * time.Second)
	want := []time.Duration{
		5 * time.Second, 10 * time.Second, 20 * time.Second, 40 * time.Second,
		80 * time.Second, 160 * time.Second, 320 * time.Second,
		600 * time.Second, 600 * time.Second,
	}
	for n, w := range want {
		if got := b.IntervalAfter(n); got != w {
			t.Fatalf("IntervalAfter(%d) = %v want %v", n, got, w)
		}
	}
}

func TestBackoffDegenerate(t *testing.T) {
	b := Backoff{Initial: 0, Factor: 2, Steady: 100 * time.Second}
	if b.IntervalAfter(0) != 100*time.Second {
		t.Fatal("zero initial should jump to steady")
	}
	b = Backoff{Initial: 10 * time.Second, Factor: 0.5, Steady: 100 * time.Second}
	// Factor below 1 clamps to constant.
	if b.IntervalAfter(5) != 10*time.Second {
		t.Fatalf("got %v", b.IntervalAfter(5))
	}
	if DefaultBackoff(0).Steady != MinInterval {
		t.Fatal("default steady")
	}
}

func TestMeanDiscoveryDelayMatchesPaper(t *testing.T) {
	// Paper §2.3: constant 10-minute repeats, 2% loss, 200 ms delay →
	// ≈12 s mean. Model that as a constant schedule.
	constant := Backoff{Initial: 600 * time.Second, Factor: 1, Steady: 600 * time.Second}
	got := constant.MeanDiscoveryDelay(0.02, 0.2)
	if math.Abs(got-12.2) > 0.6 {
		t.Fatalf("constant schedule delay %v, paper says ≈12 s", got)
	}
	// With the 5 s-start exponential schedule the paper expects ≈0.3 s.
	exp := DefaultBackoff(600 * time.Second)
	got = exp.MeanDiscoveryDelay(0.02, 0.2)
	if got > 0.6 || got < 0.15 {
		t.Fatalf("exponential schedule delay %v, paper says ≈0.3 s", got)
	}
}

func TestCacheObserve(t *testing.T) {
	c := NewCache(time.Hour)
	now := time.Unix(1000, 0)
	e, fresh := c.Observe(desc(1, 1), now)
	if !fresh || e.FirstHeard != now.Unix() {
		t.Fatal("first observation should be fresh")
	}
	// Same version re-announcement: not fresh.
	if _, fresh := c.Observe(desc(1, 1), now.Add(time.Minute)); fresh {
		t.Fatal("re-announcement should not be fresh")
	}
	// New version: fresh.
	if _, fresh := c.Observe(desc(1, 2), now.Add(2*time.Minute)); !fresh {
		t.Fatal("new version should be fresh")
	}
	// Old version does not clobber newer cached state.
	e, _ = c.Observe(desc(1, 1), now.Add(3*time.Minute))
	if e.Desc.Version != 2 {
		t.Fatalf("version regressed to %d", e.Desc.Version)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCacheDeleteAndRevive(t *testing.T) {
	c := NewCache(time.Hour)
	now := time.Unix(1000, 0)
	c.Observe(desc(1, 1), now)
	key := desc(1, 1).Key()
	c.Delete(key, now.Add(time.Minute))
	if _, ok := c.Get(key); ok {
		t.Fatal("deleted entry still live")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
	// A re-announcement revives it as fresh.
	if _, fresh := c.Observe(desc(1, 1), now.Add(2*time.Minute)); !fresh {
		t.Fatal("revival should be fresh")
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("revived entry not live")
	}
}

func TestCacheExpire(t *testing.T) {
	c := NewCache(10 * time.Minute)
	now := time.Unix(0, 0)
	c.Observe(desc(1, 1), now)
	c.Observe(desc(2, 1), now.Add(8*time.Minute))
	evicted := c.Expire(now.Add(11 * time.Minute))
	if len(evicted) != 1 || evicted[0] != desc(1, 1).Key() {
		t.Fatalf("evicted %v", evicted)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
	// Deleted entries expire on the short fuse.
	c.Delete(desc(2, 1).Key(), now.Add(12*time.Minute))
	evicted = c.Expire(now.Add(14 * time.Minute))
	if len(evicted) != 1 {
		t.Fatalf("deleted entry not fast-expired: %v", evicted)
	}
}

func TestCacheLiveAndTotalBytes(t *testing.T) {
	c := NewCache(0)
	now := time.Unix(0, 0)
	c.Observe(desc(1, 1), now)
	c.Observe(desc(2, 1), now)
	c.Delete(desc(2, 1).Key(), now)
	live := c.Live()
	if len(live) != 1 || live[0].Desc.ID != 1 {
		t.Fatalf("live = %v", live)
	}
	if got := c.TotalAdBytes(); got < 50 || got > 1000 {
		t.Fatalf("TotalAdBytes = %d", got)
	}
}

// TestCacheRefreshAllocatesNothing pins the listener fast path: hearing a
// known session again at the same version, as the same bytes in another
// datagram, allocates nothing — the entry keeps the copy it holds — while
// the bandwidth total stays the exact payload size.
func TestCacheRefreshAllocatesNothing(t *testing.T) {
	c := NewCache(0)
	now := time.Unix(0, 0)
	c.Observe(desc(1, 1), now)
	again, sdp := heard(desc(1, 1))
	sdp = append([]byte(nil), sdp...) // the same bytes, another datagram
	key := again.Key()
	if n := testing.AllocsPerRun(100, func() { c.ObserveHeard(key, again, sdp, 0, now) }); n != 0 {
		t.Fatalf("same-version ObserveHeard: %v allocs, want 0", n)
	}
	if got, want := c.TotalAdBytes(), len(sdp)+8; got != want {
		t.Fatalf("TotalAdBytes = %d, want %d", got, want)
	}
}

// TestDigestFollowsTheDescription: an entry's digest is 0 or that of the
// bytes its description was parsed from, so it changes hands exactly when
// the description does — at every site that assigns one.
func TestDigestFollowsTheDescription(t *testing.T) {
	c := NewCache(time.Hour)
	now := time.Unix(1000, 0)
	key := []byte(desc(1, 2).Key())
	known := func(digest uint64) bool {
		_, ok := c.Unchanged(key, digest)
		return ok
	}

	e, _ := observe(c, desc(1, 2), 11, now)
	if !known(11) || known(12) || known(0) || e.Key() != string(key) {
		t.Fatalf("a new entry: known(11) %v, known(12) %v, known(0) %v, key %q", known(11), known(12), known(0), e.Key())
	}
	if _, ok := c.Unchanged([]byte("10.9.9.9/1"), 11); ok {
		t.Fatal("a digest was found under a key it was not filed under")
	}
	// An older version is not taken, and neither is its digest.
	observe(c, desc(1, 1), 13, now)
	if known(13) || !known(11) {
		t.Fatal("an ignored older version changed the digest")
	}
	// The same version from other bytes replaces both.
	observe(c, desc(1, 2), 14, now)
	if known(11) || !known(14) {
		t.Fatal("a description replaced at the same version kept the old digest")
	}
	// A description that did not come from a payload has none.
	c.Observe(desc(1, 2), now)
	if known(14) {
		t.Fatal("a description observed without a digest kept its predecessor's")
	}
	// Tombstones are never unchanged; a resurrection brings its own digest.
	observe(c, desc(1, 2), 15, now)
	c.Delete(string(key), now)
	if known(15) {
		t.Fatal("a tombstone passed for an unchanged entry")
	}
	observe(c, desc(1, 2), 16, now)
	if !known(16) {
		t.Fatal("a resurrected entry does not know its digest")
	}
	// Restore: a new entry and a version upgrade take the record's digest,
	// a record the cache ignores leaves things alone.
	restore(c, desc(1, 3), 17, now, now, now)
	if !known(17) {
		t.Fatal("a restored upgrade did not bring its digest")
	}
	restore(c, desc(1, 3), 18, now, now, now)
	if known(18) || !known(17) {
		t.Fatal("an ignored record changed the digest")
	}
	other := []byte(desc(2, 1).Key())
	restore(c, desc(2, 1), 19, now, now, now)
	if _, ok := c.Unchanged(other, 19); !ok {
		t.Fatal("a restored entry does not know its record's digest")
	}

	// Touch is the whole of an unchanged refresh.
	later := now.Add(time.Minute)
	e, _ = c.Unchanged(other, 19)
	c.Touch(e, later)
	if !e.LastHeard.Equal(later) || e.FirstHeard != now.Unix() {
		t.Fatalf("touched entry: first heard %d, last heard %v", e.FirstHeard, e.LastHeard)
	}
}
