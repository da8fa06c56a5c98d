package announce

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"sessiondir/internal/admission"
	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
)

var indexSpace = mcast.AddrSpace{Base: netip.AddrFrom4([4]byte{224, 2, 128, 0}), Size: 24}

// scanCandidates is the rebuild the eviction order replaces: the
// directory's old candidatesLocked, a walk of the cache that builds one
// admission.Candidate (and one key string) per entry, whatever its origin.
func scanCandidates(s *Cache) []admission.Candidate {
	var cands []admission.Candidate
	for _, e := range s.All() {
		cands = append(cands, admission.Candidate{
			Key: e.Desc.Key(), Origin: e.Desc.Origin, TTL: e.Desc.TTL,
			LastHeard: e.LastHeard, Deleted: e.Deleted,
		})
	}
	return cands
}

// checkNodes asserts that tr links the node of no entry but a member of
// s's allocator state, and that one at the address it is filed at: the
// cache unlinks a node wherever its entry stops being a member.
func checkNodes(t *testing.T, at string, s *Cache, tr *clash.Tracker) {
	t.Helper()
	tr.EachLinked(func(chain mcast.Addr, n *clash.Node) {
		e, ok := s.entries[string(n.Key())]
		if !ok || e.Node() != n {
			t.Fatalf("%s: the tracker links the node of %s, which the cache no longer holds", at, n.Key())
		}
		if idx, member := s.member(e); !member || idx != chain {
			t.Fatalf("%s: the tracker links %s at %d; a member of the state: %v, at %d", at, n.Key(), chain, member, idx)
		}
	})
}

// scanState is the rebuild the allocator state replaces: the heard half of
// the directory's old viewLocked, folded into a State.
func scanState(s *Cache, space mcast.AddrSpace) *allocator.State {
	state := allocator.NewState(space.Size)
	for _, e := range s.Live() {
		if idx, ok := space.Index(e.Desc.Group); ok {
			state.Add(idx, e.Desc.TTL)
		}
	}
	return state
}

// originsAt is the scan the per-origin index replaces: each origin's
// candidates and tombstones counted, and the earliest LastHeard among them.
func originsAt(c *Cache) map[netip.Addr]originIndex {
	origins := map[netip.Addr]originIndex{}
	for _, e := range c.order {
		o := origins[e.Desc.Origin]
		if o.n == 0 || e.LastHeard.Before(o.heard) {
			o.heard = e.LastHeard
		}
		o.n++
		if e.Deleted {
			o.tombs++
		}
		origins[e.Desc.Origin] = o
	}
	return origins
}

// checkIndexInvariants verifies that the heap is a heap in evictsBefore
// order whose members know their slots, that it holds exactly the
// cache's entries, and that the per-origin counts are exact with no
// zero left behind and each origin's bound at or below its earliest
// LastHeard — exactly there if exact (after an Expire that scanned).
func checkIndexInvariants(t *testing.T, c *Cache, exact bool) {
	t.Helper()
	for i, e := range c.order {
		if int(e.heapPos) != i+1 {
			t.Fatalf("order[%d] records slot %d", i, e.heapPos)
		}
		if i > 0 && evictsBefore(e, c.order[(i-1)/2]) {
			t.Fatalf("order[%d] evicts before its parent", i)
		}
	}
	tracked := 0
	for key, e := range c.entries {
		if e.key != key || key != e.Desc.Key() {
			t.Fatalf("entry filed under %q records key %q, its description has %q", key, e.key, e.Desc.Key())
		}
		if e.heapPos == 0 {
			t.Fatalf("%s is not in the order", key)
		}
		tracked++
		if c.order[e.heapPos-1] != e {
			t.Fatalf("%s's slot %d holds another entry", key, e.heapPos)
		}
	}
	if tracked != len(c.order) {
		t.Fatalf("order holds %d entries, the cache %d candidates", len(c.order), tracked)
	}
	want := originsAt(c)
	if len(want) != len(c.perOrigin) {
		t.Fatalf("%d origins indexed, want %d: %v", len(c.perOrigin), len(want), c.perOrigin)
	}
	for origin, w := range want {
		got := c.perOrigin[origin]
		if got.n != w.n || got.tombs != w.tombs || w.heard.Before(got.heard) || exact && !got.heard.Equal(w.heard) {
			t.Fatalf("origin %s indexed as %d candidates, %d tombstones, heard from %v; a scan finds %d, %d, earliest heard %v (exact: %v)",
				origin, got.n, got.tombs, got.heard, w.n, w.tombs, w.heard, exact)
		}
	}
}

// eagerParse is what a cache that parsed every payload it took would hold
// for d.
func eagerParse(t *testing.T, d *session.Description) *session.Description {
	t.Helper()
	_, payload := heard(d)
	parsed, err := session.ParseSDP(payload)
	if err != nil {
		t.Fatal(err)
	}
	return parsed
}

// dueAt is the scan Expire's bound lets it skip: every key unheard past its
// limit at now, sorted.
func dueAt(s *Cache, now time.Time) []string {
	var due []string
	for key, e := range s.entries {
		limit := s.timeout
		if e.Deleted {
			limit = s.timeout / 10
		}
		if now.Sub(e.LastHeard) > limit {
			due = append(due, key)
		}
	}
	sort.Strings(due)
	return due
}

// freshAt is the scan the fresh count replaces: live entries heard within
// staleAfter of now.
func freshAt(s *Cache, now time.Time, staleAfter time.Duration) int {
	fresh := 0
	for _, e := range s.entries {
		if !e.Deleted && now.Sub(e.LastHeard) < staleAfter {
			fresh++
		}
	}
	return fresh
}

// evictableAt is the scan the heap walk replaces: the keys of every
// evictable candidate (only origin's, if from), in eviction order.
func evictableAt(s *Cache, now time.Time, staleAfter time.Duration, origin netip.Addr, from bool) []string {
	var found []*Entry
	for _, e := range s.order {
		if e.evictable(now, staleAfter) && (!from || e.Desc.Origin == origin) {
			found = append(found, e)
		}
	}
	sort.Slice(found, func(i, j int) bool { return evictsBefore(found[i], found[j]) })
	keys := []string{}
	for _, e := range found {
		keys = append(keys, e.key)
	}
	return keys
}

// TestIndicesMatchFullScanReference drives a cache with both indices on
// through seeded op sequences — new sessions, refreshes, version
// bumps that change scope and address, deletions, resurrections, evictions,
// expiry, restores with arbitrary timestamps, clocks that stand still (long
// runs of equal LastHeard) or step backwards, entries of the tracker's own
// origin — and after every op requires that Expire at that instant removes
// exactly what a full scan finds due (whether its bound let it skip the
// scan or not), that planning over the maintained order equals PlanNew
// over a fresh scan (outcome, evictions and their sequence) under several
// budgets, that the allocator state equals one folded from a scan, that the
// clash tracker links no node but a member's (checkNodes), that the
// index invariants hold, that the walk off the top of the eviction heap
// finds what a sorted scan of the whole order does, and that CountFresh
// equals a scan — at now, and every few ops also exactly staleAfter later
// (an entry heard at now is then stale), back at now again, and under
// another staleAfter — whether its memo answered or rescanned. The walk
// for one origin's entries is checked the same way, whether the origin's
// counts answered it or it walked; scripted cases after the sequences take
// the per-origin bound through its edges: an origin at its quota, all
// fresh, beside stale entries of another; its oldest entry going stale
// while the others are touched; a tombstone made and revived; a Restore
// heard before the bound; a clock that steps back. Both answers must
// occur.
func TestIndicesMatchFullScanReference(t *testing.T) {
	const staleAfter = 10 * time.Minute
	budgets := []Budget{
		{MaxSessions: 12, MaxPerOrigin: 3},
		{MaxSessions: 5}, // often several entries over: the sorted path
		{MaxPerOrigin: 2},
		{MaxSessions: 40, MaxPerOrigin: 6},
	}
	var planners []*admission.Controller
	for i, b := range budgets {
		budgets[i].StaleAfter = staleAfter
		planners = append(planners, admission.New(admission.Config{MaxSessions: b.MaxSessions, MaxPerOrigin: b.MaxPerOrigin, StaleAfter: staleAfter}))
	}
	ttls := []mcast.TTL{1, 15, 63, 127}
	seen := map[admission.Outcome]int{}
	multi, tieBroken := 0, 0
	skipped, scannedEmpty, expired := 0, 0, 0
	answered, rescanned, belowTombstone := 0, 0, 0
	unwalked, walked := 0, 0

	// checkOrder compares the eviction order with scans at now: the index
	// invariants (the per-origin bounds exact if exact), the walk off the
	// top of the heap with a sorted scan of the whole order, the walk for
	// each of origins' entries (unwalked when the origin's counts answered
	// it, walked otherwise) with a scan of that origin's, and planning a
	// newcomer from each of planFor over the order with PlanNew over a
	// fresh scan (outcome, evictions and their sequence) under every
	// budget.
	checkOrder := func(at string, s *Cache, now time.Time, exact bool, origins, planFor []netip.Addr) {
		t.Helper()
		checkIndexInvariants(t, s, exact)
		all := evictableAt(s, now, staleAfter, netip.Addr{}, false)
		if got := s.appendEvictable([]string{}, len(all)+1, now, staleAfter); !reflect.DeepEqual(got, all) {
			t.Fatalf("%s: the heap walk found %v evictable, a scan %v", at, got, all)
		}
		for _, origin := range origins {
			if s.noneEvictableFrom(origin, now, staleAfter) {
				unwalked++
			} else {
				walked++
			}
			want := evictableAt(s, now, staleAfter, origin, true)
			if got := s.appendEvictableFrom([]string{}, origin, len(want)+1, now, staleAfter); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the heap walk found %v evictable from %s (index %+v), a scan %v", at, got, origin, s.perOrigin[origin], want)
			}
		}
		for i := 1; i < len(s.order); i++ {
			if parent := s.order[(i-1)/2]; parent.Deleted && !s.order[i].Deleted && s.order[i].evictable(now, staleAfter) {
				belowTombstone++
				break
			}
		}
		cands := scanCandidates(s)
		for _, origin := range planFor {
			for pi, p := range planners {
				got, want := s.PlanNew(budgets[pi], origin, now), p.PlanNew(cands, origin, now)
				if got.Outcome != want.Outcome || fmt.Sprint(got.Evict) != fmt.Sprint(want.Evict) {
					t.Fatalf("%s budget %d origin %s:\n ordered %v %v\n PlanNew %v %v",
						at, pi, origin, got.Outcome, got.Evict, want.Outcome, want.Evict)
				}
				seen[got.Outcome]++
				if len(got.Evict) > 1 {
					multi++
				}
			}
		}
		// How often the last tie-break decides: the head and some other
		// candidate agree on everything but the key.
		for _, c := range cands[min(1, len(cands)):] {
			if h := cands[0]; c.Deleted == h.Deleted && c.LastHeard.Equal(h.LastHeard) && c.TTL == h.TTL {
				tieBroken++
				break
			}
		}
	}

	// salt keeps the 24 op sequences the test ran when it also looped over
	// shard counts 1, 4 and 8 (the count was part of the generator's seed).
	for _, salt := range []uint64{1, 4, 8} {
		for seed := uint64(1); seed <= 8; seed++ {
			s := NewCache(time.Hour)
			tr := clash.NewTracker(clash.TrackerConfig{RecentWindow: 1000, Delay: clash.NewUniformDelay(1000, 1001)}, stats.NewRNG(seed))
			s.TrackState(indexSpace, allocator.NewState(indexSpace.Size), tr)
			ops := stats.NewRNG(seed<<8 | salt)
			parsed := map[string]*session.Description{}
			now := time.Unix(1_000_000, 0)
			// Half the sequences switch the eviction order on over a
			// populated cache.
			trackAt := 0
			if seed%2 == 0 {
				trackAt = 150
			}
			// Origins 10.0.0.1 … 10.0.0.12 and ids 1 … 12: string
			// order and numeric order disagree on both halves of the key.
			mk := func() *session.Description {
				d := odesc(byte(1+ops.IntN(12)), uint64(1+ops.IntN(12)), uint64(1+ops.IntN(3)))
				d.TTL = ttls[ops.IntN(len(ttls))]
				d.Group = netip.AddrFrom4([4]byte{224, 2, 128, byte(ops.IntN(32))}) // a quarter outside indexSpace
				return d
			}
			for step := 0; step < 1200; step++ {
				if step == trackAt {
					s.TrackOrder()
				}
				switch r := ops.IntN(10); {
				case r < 4: // mostly the clock stands still
				case r < 8:
					now = now.Add(time.Duration(ops.IntN(240)) * time.Second)
				case r < 9:
					now = now.Add(-time.Duration(ops.IntN(180)) * time.Second)
				default:
					now = now.Add(time.Duration(10+ops.IntN(25)) * time.Minute)
				}
				d := mk()
				eager := eagerParse(t, d)
				switch op := ops.IntN(20); {
				case op < 9:
					// New session, refresh, bump or resurrection, as the key's
					// state has it.
					s.Observe(d, now)
				case op < 11:
					// A refresh that changes nothing but LastHeard: observing
					// the description again, or — a live entry only — Touch.
					if e, ok := s.Peek(d.Key()); ok && step%2 == 0 && !e.Deleted {
						s.Touch(e, now)
					} else if ok {
						s.ObserveHeard(e.Key(), e.Desc, []byte(e.Payload()), 0, now)
					}
				case op < 13:
					s.Delete(d.Key(), now)
				case op < 14:
					s.Remove(d.Key())
				case op < 15:
					s.Expire(now)
				case op < 17:
					last := now.Add(-time.Duration(ops.IntN(50)) * time.Minute)
					restore(s, d, 0, last.Add(-time.Hour), last, now)
				default:
					// An admission as the directory performs it: plan, evict,
					// and cache the newcomer unless it was turned away.
					if _, known := s.Peek(d.Key()); known {
						break
					}
					dec := s.PlanNew(budgets[0], d.Origin, now)
					for _, k := range dec.Evict {
						s.Remove(k)
					}
					if dec.Outcome == admission.Admit {
						s.Observe(d, now)
					}
				}

				// The descriptions the entries parse to on demand, against
				// the ones an eager cache would hold: the parse of each
				// payload the moment an entry took it.
				if e, ok := s.Peek(d.Key()); ok && e.Desc == d.Summary() {
					parsed[d.Key()] = eager
				}
				// A directory links a member's node once the cache has it.
				if e, ok := s.Peek(d.Key()); ok {
					if idx, member := s.member(e); member {
						tr.ObserveNode(e.Node(), idx, float64(now.UnixMilli()))
					}
				}
				checkNodes(t, fmt.Sprintf("salt %d seed %d step %d", salt, seed, step), s, tr)
				for key, e := range s.entries {
					if got := e.Description(); !reflect.DeepEqual(got, parsed[key]) || got.Summary() != e.Desc {
						t.Fatalf("salt %d seed %d step %d: %s parses on demand to %+v (summary %+v), eagerly to %+v",
							salt, seed, step, key, got, e.Desc, parsed[key])
					}
				}

				// What a directory's Step does next, against the scan.
				want := dueAt(s, now)
				skip := !now.After(s.bound)
				got := s.Expire(now)
				if fmt.Sprint(got) != fmt.Sprint(want) || (skip && got != nil) {
					t.Fatalf("salt %d seed %d step %d: Expire (skipping the scan: %v) removed %v, a full scan finds %v due",
						salt, seed, step, skip, got, want)
				}
				checkNodes(t, fmt.Sprintf("salt %d seed %d step %d, expired", salt, seed, step), s, tr)
				switch {
				case skip:
					skipped++
				case len(got) == 0:
					scannedEmpty++
				default:
					expired++
				}

				probes := []struct {
					at         time.Time
					staleAfter time.Duration
				}{{now, staleAfter}}
				switch step % 8 {
				case 3:
					probes = append(probes, probes[0], probes[0])
					probes[1].at = now.Add(staleAfter)
				case 6:
					probes = append(probes, probes[0], probes[0])
					probes[1].staleAfter = staleAfter / 2
				}
				for _, p := range probes {
					want, memo := freshAt(s, p.at, p.staleAfter), s.fresh
					if got := s.CountFresh(p.at, p.staleAfter); got != want {
						t.Fatalf("salt %d seed %d step %d: CountFresh(now%+v, %v) = %d (memo %+v), a scan counts %d",
							salt, seed, step, p.at.Sub(now), p.staleAfter, got, memo, want)
					}
					if s.fresh == memo {
						answered++
					} else {
						rescanned++
					}
				}

				if want := scanState(s, indexSpace); !reflect.DeepEqual(s.state, want) {
					t.Fatalf("salt %d seed %d step %d: allocator state %+v, rebuilt %+v", salt, seed, step, s.state, want)
				}
				if step < trackAt {
					continue
				}

				checkOrder(fmt.Sprintf("salt %d seed %d step %d", salt, seed, step), s, now, !skip,
					[]netip.Addr{d.Origin, netip.AddrFrom4([4]byte{10, 0, 0, 2})},
					[]netip.Addr{d.Origin, netip.AddrFrom4([4]byte{10, 0, 0, 1}), netip.AddrFrom4([4]byte{10, 9, 9, 9})})
			}
			// Emptying the cache empties the indices.
			for _, e := range s.All() {
				s.Remove(e.Desc.Key())
			}
			checkIndexInvariants(t, s, true)
			if empty := allocator.NewState(indexSpace.Size); len(s.order) != 0 || !reflect.DeepEqual(s.state, empty) || len(s.perOrigin) != 0 || tr.PendingDefenses() != 0 {
				t.Fatalf("salt %d seed %d: %d candidates, allocator state %+v, %d counted origins and %d pending defences left in an empty cache",
					salt, seed, len(s.order), s.state, len(s.perOrigin), tr.PendingDefenses())
			}
			checkNodes(t, fmt.Sprintf("salt %d seed %d, emptied", salt, seed), s, tr)
		}
	}

	// The per-origin bound's edges, scripted: each case checked like a
	// step above, and required to be answered from origin's counts, or
	// walked, as the case says.
	{
		s := NewCache(time.Hour)
		s.TrackState(indexSpace, allocator.NewState(indexSpace.Size), nil)
		s.TrackOrder()
		a, b, e := netip.AddrFrom4([4]byte{10, 0, 0, 2}), netip.AddrFrom4([4]byte{10, 0, 0, 3}), netip.AddrFrom4([4]byte{10, 0, 0, 6})
		now := time.Unix(2_000_000, 0)
		for id := uint64(1); id <= 3; id++ {
			s.Observe(odesc(3, id, 1), now)
		}
		now = now.Add(staleAfter + time.Minute)
		var as []*Entry
		for id := uint64(1); id <= 3; id++ {
			entry, _ := s.Observe(odesc(2, id, 1), now)
			as = append(as, entry)
		}
		touchAll := func() {
			for _, entry := range as {
				s.Touch(entry, now)
			}
		}
		for _, c := range []struct {
			name     string
			do       func()
			origin   netip.Addr
			unwalked bool
			exact    bool
		}{
			{"at its quota, every entry fresh, beside another origin's stale ones", nil, a, true, true},
			{"a tombstone made", func() { s.Delete(as[1].Key(), now) }, a, false, true},
			{"the tombstone revived", func() { s.Observe(odesc(2, 2, 2), now) }, a, true, true},
			{"its oldest entry goes stale while the others are touched", func() {
				now = now.Add(staleAfter / 2)
				s.Touch(as[1], now)
				s.Touch(as[2], now)
				now = now.Add(staleAfter/2 + time.Second)
			}, a, false, true},
			{"the stale entry heard again leaves the bound where it was", func() { s.Touch(as[0], now) }, a, false, false},
			{"an Expire that scans makes the bound exact", func() {
				other := odesc(4, 1, 1)
				s.Observe(other, now)
				s.Delete(other.Key(), now)
				now = now.Add(s.timeout/10 + time.Second)
				touchAll()
				if got := s.Expire(now); !reflect.DeepEqual(got, []string{other.Key()}) {
					t.Fatalf("Expire removed %v, want the tombstone %s", got, other.Key())
				}
			}, a, true, true},
			{"the clock steps back, one entry is heard, the clock recovers", func() {
				back := now
				now = now.Add(-2 * staleAfter)
				s.Touch(as[0], now)
				now = back
			}, a, false, true},
			{"another origin's entries, all fresh", func() {
				for id := uint64(1); id <= 3; id++ {
					s.Observe(odesc(6, id, 1), now)
				}
			}, e, true, true},
			{"a Restore heard before the bound", func() {
				last := now.Add(-2 * staleAfter)
				restore(s, odesc(6, 4, 1), 0, last, last, now)
			}, e, false, true},
			{"the restored entry removed leaves the bound where it was", func() { s.Remove(odesc(6, 4, 1).Key()) }, e, false, false},
		} {
			if c.do != nil {
				c.do()
			}
			if got := s.noneEvictableFrom(c.origin, now, staleAfter); got != c.unwalked {
				t.Fatalf("bound case %q: %s answered from its counts (%+v) = %v, want %v", c.name, c.origin, s.perOrigin[c.origin], got, c.unwalked)
			}
			checkOrder("bound case "+c.name, s, now, c.exact, []netip.Addr{a, b, e}, []netip.Addr{a, e})
		}
	}
	if unwalked == 0 || walked == 0 {
		t.Errorf("per-origin walks: %d answered from the origin's counts, %d walked: the generator no longer reaches one of them", unwalked, walked)
	}
	t.Logf("per-origin walks: %d answered from the origin's counts, %d walked", unwalked, walked)

	for _, o := range []admission.Outcome{admission.Admit, admission.Shed, admission.DenyQuota} {
		if seen[o] == 0 {
			t.Errorf("no plan ever came out %v: the generator no longer reaches that outcome", o)
		}
	}
	if multi == 0 {
		t.Error("no plan ever evicted more than one entry")
	}
	if tieBroken == 0 {
		t.Error("no state ever had two candidates tied up to the key")
	}
	// The bound is conservative, not exact, between scans: a scan that
	// finds nothing is allowed, and happens after removals and refreshes.
	if skipped == 0 || scannedEmpty == 0 || expired == 0 {
		t.Errorf("expiry probes: %d skipped the scan, %d scanned and found nothing, %d expired something: the generator no longer reaches one of them",
			skipped, scannedEmpty, expired)
	}
	t.Logf("expiry probes: %d skipped the scan, %d scanned and found nothing, %d expired something", skipped, scannedEmpty, expired)
	if answered == 0 || rescanned == 0 {
		t.Errorf("fresh-count probes: %d answered by the memo, %d rescanned: the generator no longer reaches one of them", answered, rescanned)
	}
	if belowTombstone == 0 {
		t.Error("no heap ever held a stale entry directly below a tombstone: the walk's descent past tombstones is untested")
	}
	t.Logf("fresh-count probes: %d answered by the memo, %d rescanned; %d heaps with a stale entry below a tombstone", answered, rescanned, belowTombstone)
}

// TestFreshCountAtItsEdges walks the fresh count's memo through the cases
// it must rescan for and the mutations it must follow, each against a scan
// and each with whether the memo (rather than a rescan) answered.
func TestFreshCountAtItsEdges(t *testing.T) {
	const staleAfter = 10 * time.Minute
	t0 := time.Unix(1_000_000, 0)
	s := NewCache(time.Hour)
	a, _ := s.Observe(odesc(2, 1, 1), t0)
	s.Observe(odesc(3, 2, 1), t0.Add(time.Minute))
	for _, c := range []struct {
		name       string
		do         func()
		at         time.Time
		staleAfter time.Duration
		want       int
		answered   bool
	}{
		{"the first call scans", nil, t0, staleAfter, 2, false},
		{"a nanosecond before the first goes stale", nil, t0.Add(staleAfter - 1), staleAfter, 2, true},
		{"exactly staleAfter old is stale", nil, t0.Add(staleAfter), staleAfter, 1, false},
		{"a touch counts a stale entry again", func() { s.Touch(a, t0.Add(staleAfter+time.Second)) },
			t0.Add(staleAfter + time.Second), staleAfter, 2, true},
		{"a restored entry heard long ago is stale", func() {
			restore(s, odesc(4, 3, 1), 0, t0.Add(-time.Hour), t0.Add(-staleAfter), t0.Add(staleAfter))
		}, t0.Add(staleAfter + time.Second), staleAfter, 2, true},
		{"a restored entry heard lately is fresh", func() {
			restore(s, odesc(5, 4, 1), 0, t0, t0.Add(staleAfter), t0.Add(staleAfter))
		}, t0.Add(staleAfter + time.Second), staleAfter, 3, true},
		{"a clock that stepped back", nil, t0.Add(-time.Second), staleAfter, 4, false},
		{"another staleAfter", nil, t0.Add(-time.Second), staleAfter / 20, 3, false},
		{"a deletion", func() { s.Delete(a.Key(), t0) }, t0.Add(-time.Second), staleAfter / 20, 2, true},
		{"a removal", func() { s.Remove(odesc(5, 4, 1).Key()) }, t0.Add(-time.Second), staleAfter / 20, 1, true},
		{"a resurrection", func() { s.Observe(odesc(2, 1, 2), t0) }, t0, staleAfter / 20, 2, true},
		{"an expiry", func() { s.Expire(t0.Add(2 * time.Hour)) }, t0, staleAfter / 20, 0, true},
	} {
		if c.do != nil {
			c.do()
		}
		want, memo := freshAt(s, c.at, c.staleAfter), s.fresh
		if want != c.want {
			t.Fatalf("%s: the scan counts %d, the case expects %d", c.name, want, c.want)
		}
		if got := s.CountFresh(c.at, c.staleAfter); got != want {
			t.Fatalf("%s: CountFresh = %d (memo %+v), a scan counts %d", c.name, got, memo, want)
		}
		if answered := s.fresh == memo; answered != c.answered {
			t.Fatalf("%s: answered by the memo = %v, want %v", c.name, answered, c.answered)
		}
	}
}

// TestUnarmedTouchKeepsNoCount: a cache whose CountFresh was never called
// (a directory with no session budget) keeps no fresh count, so its
// refreshes pay nothing for one.
func TestUnarmedTouchKeepsNoCount(t *testing.T) {
	s := NewCache(time.Hour)
	now := time.Unix(1_000_000, 0)
	e, _ := s.Observe(odesc(2, 1, 1), now)
	s.Touch(e, now.Add(time.Second))
	s.Delete(e.Key(), now.Add(2*time.Second))
	if s.fresh != (freshCount{}) {
		t.Fatalf("a cache never asked for its fresh count keeps one: %+v", s.fresh)
	}
}

// TestExpireBoundFollowsDeadlinesBack: the three ways an entry's deadline
// can move earlier — a refresh (Touch or ObserveHeard) by a clock that
// stepped backwards, and a deletion — each lower the bound, so the entry
// expires on time even when it is the only one in the cache.
func TestExpireBoundFollowsDeadlinesBack(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	for _, c := range []struct {
		name     string
		back     func(s *Cache, e *Entry)
		deadline time.Time
	}{
		{"touch", func(s *Cache, e *Entry) { s.Touch(e, t0.Add(-10*time.Minute)) }, t0.Add(50 * time.Minute)},
		{"observe", func(s *Cache, e *Entry) { s.ObserveHeard(e.key, e.Desc, []byte(e.payload), 0, t0.Add(-10*time.Minute)) }, t0.Add(50 * time.Minute)},
		{"delete", func(s *Cache, e *Entry) { s.Delete(e.key, t0) }, t0.Add(6 * time.Minute)},
	} {
		s := NewCache(time.Hour)
		e, _ := s.Observe(odesc(2, 1, 1), t0)
		c.back(s, e)
		if got := s.Expire(c.deadline); got != nil {
			t.Fatalf("%s: Expire at the new deadline removed %v", c.name, got)
		}
		if got := s.Expire(c.deadline.Add(time.Nanosecond)); len(got) != 1 {
			t.Fatalf("%s: Expire just past the new deadline removed %v, want the entry", c.name, got)
		}
	}
}

// TestExpireNothingDueAllocatesNothing pins the bound's fast path: an
// Expire before the earliest deadline returns nil without allocating, at
// every cache size, and the first Expire past it removes exactly the
// entry whose deadline it was.
func TestExpireNothingDueAllocatesNothing(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		s := NewCache(time.Hour)
		s.TrackOrder()
		s.TrackState(indexSpace, allocator.NewState(indexSpace.Size), nil)
		now := time.Unix(1_000_000, 0)
		for i := 0; i < n; i++ {
			s.Observe(odesc(byte(2+i%200), uint64(i), 1), now.Add(time.Duration(i)*time.Millisecond))
		}
		now = now.Add(time.Duration(n) * time.Millisecond)
		if allocs := testing.AllocsPerRun(100, func() {
			if got := s.Expire(now); got != nil {
				t.Fatalf("n=%d: Expire with nothing due removed %v", n, got)
			}
		}); allocs != 0 {
			t.Errorf("n=%d: an Expire with nothing due allocates %v times", n, allocs)
		}
		first := odesc(2, 0, 1).Key()
		if got := s.Expire(time.Unix(1_000_000, 0).Add(time.Hour + time.Nanosecond)); len(got) != 1 || got[0] != first {
			t.Fatalf("n=%d: one nanosecond past the first deadline Expire removed %v, want [%s]", n, got, first)
		}
		if want := time.Unix(1_000_000, 0).Add(time.Hour + time.Millisecond); !s.bound.Equal(want) {
			t.Fatalf("n=%d: after the scan the bound is %v, want the next deadline %v", n, s.bound, want)
		}
	}
}

// TestLastHeardIsAWallReading pins what makes the per-origin bound exact
// under a real clock: an entry heard, heard again, deleted or heard back
// in time keeps the wall reading only, as a restored entry does, so a
// bound set by one and an entry measured by another use the same clock.
func TestLastHeardIsAWallReading(t *testing.T) {
	s := NewCache(time.Hour)
	s.TrackOrder()
	now := time.Now() // carries a monotonic reading
	wall := func(at string, e *Entry) {
		t.Helper()
		if e.LastHeard != e.LastHeard.Round(0) {
			t.Fatalf("%s: LastHeard %v keeps a monotonic reading", at, e.LastHeard)
		}
	}
	d := odesc(7, 1, 1)
	e, _ := s.Observe(d, now)
	wall("a new entry", e)
	s.Touch(e, now.Add(time.Second))
	wall("a touch", e)
	s.Observe(odesc(7, 1, 2), now.Add(-time.Second))
	wall("heard back in time", e)
	s.Delete(d.Key(), now.Add(2*time.Second))
	wall("a tombstone", e)
	if o := s.perOrigin[d.Origin]; o.heard != o.heard.Round(0) {
		t.Fatalf("the origin's bound %v keeps a monotonic reading", o.heard)
	}
}

// TestEvictionOrderTieBreakIsKeyStringOrder pins the last tie-break on the
// case where string order and numeric order disagree.
func TestEvictionOrderTieBreakIsKeyStringOrder(t *testing.T) {
	s := NewCache(time.Hour)
	s.TrackOrder()
	heard := time.Unix(1000, 0)
	for _, host := range []byte{9, 10} {
		for _, id := range []uint64{9, 10} {
			s.Observe(odesc(host, id, 1), heard)
		}
	}
	got := s.appendEvictable(nil, 4, heard.Add(time.Hour), time.Minute)
	want := []string{"10.0.0.10/10", "10.0.0.10/9", "10.0.0.9/10", "10.0.0.9/9"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("eviction order %v, want %v", got, want)
	}
	for i, k := range want {
		if head := s.appendEvictable(nil, 1, heard.Add(time.Hour), time.Minute); len(head) != 1 || head[0] != k {
			t.Fatalf("head %d is %v, want %s", i, head, k)
		}
		s.Remove(k)
	}
}

// trimAt is the scan Cache.Trim replaces: every entry sorted into eviction
// order whatever it holds, each origin's first entries past its quota
// evicted, then the first of the rest past the budget.
func trimAt(s *Cache, b Budget) []string {
	var ordered []*Entry
	left := map[netip.Addr]int{}
	for _, e := range s.entries {
		ordered = append(ordered, e)
		left[e.Desc.Origin]++
	}
	sort.Slice(ordered, func(i, j int) bool { return evictsBefore(ordered[i], ordered[j]) })
	gone := map[string]bool{}
	var evict []string
	for _, e := range ordered {
		if b.MaxPerOrigin > 0 && left[e.Desc.Origin] > b.MaxPerOrigin {
			left[e.Desc.Origin]--
			gone[e.key] = true
			evict = append(evict, e.key)
		}
	}
	for _, e := range ordered {
		if b.MaxSessions > 0 && len(ordered)-len(evict) > b.MaxSessions && !gone[e.key] {
			evict = append(evict, e.key)
		}
	}
	return evict
}

// TestTrimDeterministicAndSufficient: the recovery trim leaves candidates
// that fit the session budget and every origin's quota, evicts the same
// keys in the same order however the cache was filled, and answers nil
// when the counts show nothing over. Over seeded caches of tombstones,
// ties and scopes, under budgets that bind by count, by quota, by both or
// not at all, it evicts what trimAt does, in its order.
func TestTrimDeterministicAndSufficient(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	// Ten sessions of three origins, the i-th heard i minutes ago.
	fill := func(ids ...int) *Cache {
		s := NewCache(time.Hour)
		s.TrackOrder()
		for _, i := range ids {
			restore(s, odesc(byte(2+i%3), uint64(i+1), 1), 0, now.Add(-time.Hour), now.Add(-time.Duration(i)*time.Minute), now)
		}
		return s
	}
	up, down := fill(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), fill(9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
	b := Budget{MaxSessions: 4, MaxPerOrigin: 2}
	evict := up.Trim(b)
	if again := down.Trim(b); !reflect.DeepEqual(evict, again) {
		t.Fatalf("the trim depends on the order the cache was filled in: %v, %v", evict, again)
	}
	if want := trimAt(up, b); !reflect.DeepEqual(evict, want) {
		t.Fatalf("trim %v, the reference %v", evict, want)
	}
	for _, k := range evict {
		up.Remove(k)
	}
	if len(up.order) > b.MaxSessions {
		t.Fatalf("%d survivors, budget %d", len(up.order), b.MaxSessions)
	}
	for o, n := range up.perOrigin {
		if int(n.n) > b.MaxPerOrigin {
			t.Fatalf("origin %s keeps %d entries, quota %d", o, n.n, b.MaxPerOrigin)
		}
	}
	// Origin 10.0.0.2 holds four of the ten: at the budget and the quota,
	// or without them, nothing is over.
	for _, b := range []Budget{{MaxSessions: 10, MaxPerOrigin: 4}, {MaxSessions: 10}, {MaxPerOrigin: 4}, {}} {
		if got := down.Trim(b); got != nil {
			t.Fatalf("budget %+v: trimmed %v from a cache within it", b, got)
		}
	}

	ttls := []mcast.TTL{1, 15, 63, 127}
	budgets := []Budget{{MaxSessions: 3, MaxPerOrigin: 1}, {MaxSessions: 5}, {MaxPerOrigin: 2}, {MaxSessions: 8, MaxPerOrigin: 3}, {MaxSessions: 20, MaxPerOrigin: 20}}
	untrimmed, trimmed := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := stats.NewRNG(seed)
		s := NewCache(time.Hour)
		s.TrackOrder()
		for n := rng.IntN(16); n > 0; n-- {
			d := odesc(byte(1+rng.IntN(5)), uint64(1+rng.IntN(12)), 1)
			d.TTL = ttls[rng.IntN(len(ttls))]
			last := now.Add(-time.Duration(rng.IntN(4)) * 10 * time.Minute) // ties
			restore(s, d, 0, last.Add(-time.Hour), last, now)
			if rng.IntN(5) == 0 {
				s.Delete(d.Key(), now)
			}
		}
		for _, b := range budgets {
			got, want := s.Trim(b), trimAt(s, b)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d budget %+v: trim %v, the reference %v", seed, b, got, want)
			}
			if got == nil {
				untrimmed++
			} else {
				trimmed++
			}
		}
	}
	if untrimmed == 0 || trimmed == 0 {
		t.Errorf("%d caches within their budget, %d over: the generator no longer reaches one of them", untrimmed, trimmed)
	}
}

// TestIndexedRefreshAllocatesNothing extends the listener fast-path pin to
// a cache with both indices on: a same-version refresh is one heap fix and
// the entry leaving and re-entering the allocator state, no allocation —
// also when the refreshed entry ties with others on LastHeard and scope,
// so that the fix compares keys, and shares its address with others, so
// that the state counts it beyond the first.
func TestIndexedRefreshAllocatesNothing(t *testing.T) {
	s := NewCache(0)
	s.TrackOrder()
	s.TrackState(indexSpace, allocator.NewState(indexSpace.Size), nil)
	now := time.Unix(0, 0)
	for id := uint64(1); id <= 200; id++ {
		s.Observe(odesc(byte(2+id%7), id, 1), now)
	}
	// Origin 9 is new, and its session 11 shares group 224.2.128.11, inside
	// the space, with 10.0.0.6's.
	s.Observe(odesc(9, 11, 1), now)
	again, payload := heard(odesc(9, 11, 1))
	key := again.Key()
	if n := testing.AllocsPerRun(100, func() { s.ObserveHeard(key, again, payload, 0, now) }); n != 0 {
		t.Fatalf("same-version refresh among ties: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		s.ObserveHeard(key, again, payload, 0, now)
	}); n != 0 {
		t.Fatalf("same-version refresh moving to the back: %v allocs, want 0", n)
	}
	s.ObserveHeard(key, again, payload, 42, now)
	if n := testing.AllocsPerRun(100, func() {
		now = now.Add(time.Second)
		e, ok := s.Unchanged([]byte(key), 42)
		if !ok {
			t.Fatal("the entry does not know its own digest")
		}
		s.Touch(e, now)
	}); n != 0 {
		t.Fatalf("refresh by digest: %v allocs, want 0", n)
	}
}

// TestEntryStaysInIts192ByteClass pins an entry's fixed size: the summary
// by value, two times, the key and the payload's string headers, the
// digest, the clash tracker's 32-byte node and the heap slot — 184 bytes,
// in the 192-byte size class. A field more and every cached session costs
// 208.
func TestEntryStaysInIts192ByteClass(t *testing.T) {
	if size := reflect.TypeOf(Entry{}).Size(); size > 192 {
		t.Fatalf("Entry is %d bytes, over the 192-byte size class", size)
	}
}
