package announce

import (
	"fmt"
	"net/netip"
	"sort"
	"testing"
	"time"

	"sessiondir/internal/session"
	"sessiondir/internal/stats"
)

// odesc builds a description with the given origin (the package-level desc
// helper pins one).
func odesc(hostOctet byte, id, version uint64) *session.Description {
	return &session.Description{
		ID:      id,
		Version: version,
		Origin:  netip.AddrFrom4([4]byte{10, 0, 0, hostOctet}),
		Name:    fmt.Sprintf("s-%d-%d", hostOctet, id),
		Group:   netip.AddrFrom4([4]byte{224, 2, 128, byte(id)}),
		TTL:     127,
		Media:   []session.Media{{Type: "audio", Port: 1000, Proto: "RTP/AVP", Format: "0"}},
	}
}

// The incremental live/adBytes accounting must equal a from-scratch
// recomputation over the entries at any point — exactness is what lets
// the bandwidth budget trust O(1) Len/TotalAdBytes. (The test keeps the
// name it had when the store was striped; the op sequence is unchanged.)
func TestShardedAccountingMatchesRecount(t *testing.T) {
	s := NewCache(time.Hour)
	rng := stats.NewRNG(7)
	now := time.Unix(2000, 0)
	recount := func() (live, adBytes int) {
		for _, e := range s.All() {
			if !e.Deleted {
				live++
				if data, err := e.Desc.MarshalSDP(); err == nil {
					adBytes += len(data) + 8
				} else {
					adBytes += 256
				}
			}
		}
		return
	}
	for step := 0; step < 1500; step++ {
		host := byte(rng.IntN(9))
		id := uint64(rng.IntN(25))
		now = now.Add(time.Duration(rng.IntN(200)) * time.Second)
		switch rng.IntN(8) {
		case 0:
			s.Delete(fmt.Sprintf("10.0.0.%d/%d", host, id), now)
		case 1:
			s.Remove(fmt.Sprintf("10.0.0.%d/%d", host, id))
		case 2:
			s.Expire(now)
		default:
			s.Observe(odesc(host, id, uint64(step)), now)
		}
		if step%100 != 0 {
			continue
		}
		live, adBytes := recount()
		if s.Len() != live || s.TotalAdBytes() != adBytes {
			t.Fatalf("step %d: incremental len=%d adbytes=%d, recount len=%d adbytes=%d",
				step, s.Len(), s.TotalAdBytes(), live, adBytes)
		}
	}
}

// Expire returns sorted keys — the order reaches expiry events, traces and
// the journal, so it may not be the map's.
func TestShardedExpireSorted(t *testing.T) {
	s := NewCache(time.Minute)
	now := time.Unix(3000, 0)
	for host := byte(1); host <= 12; host++ {
		s.Observe(odesc(host, uint64(host), 1), now)
	}
	evicted := s.Expire(now.Add(time.Hour))
	if len(evicted) != 12 {
		t.Fatalf("evicted %d of 12", len(evicted))
	}
	if !sort.StringsAreSorted(evicted) {
		t.Fatalf("evictions not sorted: %v", evicted)
	}
}

func TestSortByKey(t *testing.T) {
	c := NewCache(time.Hour)
	now := time.Unix(4000, 0)
	for _, host := range []byte{9, 2, 11, 2, 1} {
		c.Observe(odesc(host, uint64(host)*3%7, 1), now)
	}
	entries := c.Live()
	SortByKey(entries)
	var keys []string
	for _, e := range entries {
		if e.Key() != e.Desc.Key() {
			t.Fatalf("entry %s is held under %s", e.Desc.Key(), e.Key())
		}
		keys = append(keys, e.Key())
	}
	if len(keys) != 4 || !sort.StringsAreSorted(keys) {
		t.Fatalf("keys not sorted: %v", keys)
	}
}

// TestObserveFreshMeansReplaced: fresh reports that the entry now holds the
// observed description and is live. An older version replaces nothing, so
// it is not fresh even against a tombstone — which stays a tombstone.
func TestObserveFreshMeansReplaced(t *testing.T) {
	now := time.Unix(4000, 0)
	for _, tc := range []struct {
		name              string
		tombstone         bool
		version           uint64 // the cached one is 5
		fresh, live, held bool   // held: the entry holds the observed description
	}{
		{"known/older", false, 4, false, true, false},
		{"known/same", false, 5, false, true, true},
		{"known/newer", false, 6, true, true, true},
		{"tombstone/older", true, 4, false, false, false},
		{"tombstone/same", true, 5, true, true, true},
		{"tombstone/newer", true, 6, true, true, true},
	} {
		c := NewCache(time.Hour)
		cached := odesc(2, 1, 5)
		c.Observe(cached, now)
		if tc.tombstone {
			c.Delete(cached.Key(), now)
		}
		d := odesc(2, 1, tc.version)
		e, fresh := c.Observe(d, now.Add(time.Second))
		_, live := c.Get(d.Key())
		if fresh != tc.fresh || live != tc.live || (e.Desc == d) != tc.held {
			t.Errorf("%s: fresh=%v live=%v held=%v, want %v %v %v",
				tc.name, fresh, live, e.Desc == d, tc.fresh, tc.live, tc.held)
		}
		wantLen := 0
		if tc.live {
			wantLen = 1
		}
		if c.Len() != wantLen || (c.TotalAdBytes() > 0) != tc.live {
			t.Errorf("%s: Len %d, %d ad bytes, want %d live", tc.name, c.Len(), c.TotalAdBytes(), wantLen)
		}
	}
}
