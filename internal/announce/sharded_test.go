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

// odesc builds a description with a distinct origin so keys spread over
// shards (the package-level desc helper pins one origin — one shard).
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

// entryState is an Entry reduced to its comparable replay-relevant
// fields.
type entryState struct {
	key     string
	version uint64
	deleted bool
	first   time.Time
	last    time.Time
}

func flatStates(entries []*Entry) []entryState {
	out := make([]entryState, 0, len(entries))
	for _, e := range entries {
		out = append(out, entryState{e.Desc.Key(), e.Desc.Version, e.Deleted, e.FirstHeard, e.LastHeard})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// The oracle test: a mixed workload of observes, re-observes, deletes,
// removes and expiries lands both structures in identical state at any
// shard count, with the incremental counters matching the flat cache's.
func TestShardedMatchesFlatCacheOracle(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		flat := NewCache(time.Hour)
		sharded := NewSharded(time.Hour, shards)
		rng := stats.NewRNG(uint64(31 + shards))
		now := time.Unix(1000, 0)
		for step := 0; step < 4000; step++ {
			host := byte(rng.IntN(23))
			id := uint64(rng.IntN(40))
			now = now.Add(time.Duration(rng.IntN(120)) * time.Second)
			switch rng.IntN(10) {
			case 0:
				key := fmt.Sprintf("10.0.0.%d/%d", host, id)
				flat.Delete(key, now)
				sharded.Delete(key, now)
			case 1:
				key := fmt.Sprintf("10.0.0.%d/%d", host, id)
				flat.Remove(key)
				sharded.Remove(key)
			case 2:
				fe := flat.Expire(now)
				se := sharded.Expire(now)
				if fmt.Sprint(fe) != fmt.Sprint(se) {
					t.Fatalf("shards=%d step %d: expire diverges\n flat    %v\n sharded %v", shards, step, fe, se)
				}
			default:
				d := odesc(host, id, uint64(step))
				_, ffresh := flat.Observe(d, now)
				_, sfresh := sharded.Observe(d, now)
				if ffresh != sfresh {
					t.Fatalf("shards=%d step %d: fresh %v vs %v", shards, step, ffresh, sfresh)
				}
			}
			if flat.Len() != sharded.Len() || flat.Size() != sharded.Size() ||
				flat.TotalAdBytes() != sharded.TotalAdBytes() {
				t.Fatalf("shards=%d step %d: counters diverge: len %d/%d size %d/%d adbytes %d/%d",
					shards, step, flat.Len(), sharded.Len(), flat.Size(), sharded.Size(),
					flat.TotalAdBytes(), sharded.TotalAdBytes())
			}
		}
		fs, ss := flatStates(flat.All()), flatStates(allEntries(sharded))
		if len(fs) != len(ss) {
			t.Fatalf("shards=%d: %d entries vs %d", shards, len(fs), len(ss))
		}
		for i := range fs {
			if fs[i] != ss[i] {
				t.Fatalf("shards=%d entry %d: %+v vs %+v", shards, i, fs[i], ss[i])
			}
		}
	}
}

// allEntries flattens AllGrouped: every entry, tombstones included.
func allEntries(s *Sharded) []*Entry {
	var out []*Entry
	for _, g := range s.AllGrouped() {
		out = append(out, g...)
	}
	return out
}

// The incremental live/adBytes accounting must equal a from-scratch
// recomputation over the entries at any point — exactness is what lets
// the admission budget trust O(1) Len/TotalAdBytes across shards.
func TestShardedAccountingMatchesRecount(t *testing.T) {
	s := NewSharded(time.Hour, 4)
	rng := stats.NewRNG(7)
	now := time.Unix(2000, 0)
	recount := func() (live, adBytes int) {
		for _, e := range allEntries(s) {
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

// Expire returns globally sorted keys — the order reaches eviction
// events and traces, so it must be shard-count independent.
func TestShardedExpireSorted(t *testing.T) {
	s := NewSharded(time.Minute, 8)
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
	var entries []*Entry
	for _, host := range []byte{9, 2, 11, 2, 1} {
		entries = append(entries, &Entry{Desc: odesc(host, uint64(host)*3%7, 1)})
	}
	keys := SortByKey(entries)
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("keys not sorted: %v", keys)
	}
	for i, e := range entries {
		if e.Desc.Key() != keys[i] {
			t.Fatalf("entry %d is %s, key says %s", i, e.Desc.Key(), keys[i])
		}
	}
}
