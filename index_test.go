package sessiondir

import (
	"cmp"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/admission"
	"sessiondir/internal/allocator"
	"sessiondir/internal/announce"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// scanView is the rebuild view used to do on every allocation,
// kept as the reference the maintained state is compared against: every
// live cached session plus every owned one.
func scanView(d *Directory) []allocator.SessionInfo {
	var view []allocator.SessionInfo
	for _, e := range d.cache.Live() {
		if idx, ok := d.cfg.Space.Index(e.Desc.Group); ok {
			view = append(view, allocator.SessionInfo{Addr: idx, TTL: e.Desc.TTL})
		}
	}
	for _, own := range d.owned {
		if idx, ok := d.cfg.Space.Index(own.desc.Group); ok {
			view = append(view, allocator.SessionInfo{Addr: idx, TTL: own.desc.TTL})
		}
	}
	return view
}

// scanState is scanView folded into an allocator.State.
func scanState(d *Directory) *allocator.State {
	s := allocator.NewState(d.cfg.Space.Size)
	for _, v := range scanView(d) {
		s.Add(v.Addr, v.TTL)
	}
	return s
}

// checkIndices asserts that the cache holds no key we own, and compares the
// directory's maintained indices with the scans they replaced: the
// allocator state with one folded from scanView, the
// re-announcement bound with every owned session's next announcement, the
// overload tier read through the cache's fresh-count memo with the tier of
// a recount, and — when a budget is set — the cache's plan over its
// eviction order with admission's PlanNew over candidatesOf, for a
// newcomer from each given origin.
func checkIndices(t testing.TB, d *Directory, origins ...netip.Addr) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range d.cache.All() {
		if d.owned[e.Key()] != nil {
			t.Fatalf("the cache holds %s, a key we own", e.Key())
		}
	}
	checkTracker(t, d)
	if want := scanState(d); !reflect.DeepEqual(d.state, want) {
		t.Fatalf("maintained allocator state %+v\nrebuilt                   %+v", d.state, want)
	}
	for key, own := range d.owned {
		if own.nextAnnounce.Before(d.announceBound) {
			t.Fatalf("%s is next announced at %v, before the bound %v a step skips its walk up to", key, own.nextAnnounce, d.announceBound)
		}
	}
	if d.cfg.MaxSessions <= 0 && d.cfg.MaxPerOrigin <= 0 {
		return
	}
	now := d.cfg.Clock()
	if d.cfg.MaxSessions > 0 {
		fresh := 0
		for _, e := range d.cache.Live() {
			if now.Sub(e.LastHeard) < d.budget.StaleAfter {
				fresh++
			}
		}
		if got, want := d.degradeLevelAt(now), d.degradeLevelOf(fresh); got != want {
			t.Fatalf("overload tier %d from the fresh-count memo, %d from a recount of %d fresh", got, want, fresh)
		}
		if got := d.cache.CountFresh(now, d.budget.StaleAfter); got != fresh {
			t.Fatalf("fresh-count memo %d, a recount %d", got, fresh)
		}
	}
	ref := admission.New(admission.Config{MaxSessions: d.budget.MaxSessions, MaxPerOrigin: d.budget.MaxPerOrigin, StaleAfter: d.budget.StaleAfter})
	cands := candidatesOf(d)
	for _, origin := range origins {
		got := d.cache.PlanNew(d.budget, origin, now)
		want := ref.PlanNew(cands, origin, now)
		if got.Outcome != want.Outcome || fmt.Sprint(got.Evict) != fmt.Sprint(want.Evict) {
			t.Fatalf("newcomer from %s: ordered plan %v %v, PlanNew over a scan %v %v",
				origin, got.Outcome, got.Evict, want.Outcome, want.Evict)
		}
	}
}

// candidatesOf is the admission view of d's cache, built by a scan: every
// cached entry, whatever its origin.
func candidatesOf(d *Directory) []admission.Candidate {
	var cands []admission.Candidate
	for _, e := range d.cache.All() {
		cands = append(cands, admission.Candidate{Key: e.Key(), Origin: e.Desc.Origin, TTL: e.Desc.TTL, LastHeard: e.LastHeard, Deleted: e.Deleted})
	}
	return cands
}

// trimOf is the recovery trim over a candidate list, the reference the
// cache's Trim is checked against: sorted into eviction order (tombstones,
// then the longest unheard, the smallest scope, the key), each origin's
// first entries past its quota go, then the first of the rest past the
// budget.
func trimOf(cands []admission.Candidate, b announce.Budget) []string {
	ordered := slices.SortedFunc(slices.Values(cands), func(x, y admission.Candidate) int {
		switch {
		case x.Deleted != y.Deleted:
			if x.Deleted {
				return -1
			}
			return 1
		case !x.LastHeard.Equal(y.LastHeard):
			return x.LastHeard.Compare(y.LastHeard)
		case x.TTL != y.TTL:
			return cmp.Compare(x.TTL, y.TTL)
		}
		return strings.Compare(x.Key, y.Key)
	})
	left := map[netip.Addr]int{}
	for _, c := range cands {
		left[c.Origin]++
	}
	gone := map[string]bool{}
	var evict []string
	for _, c := range ordered {
		if b.MaxPerOrigin > 0 && left[c.Origin] > b.MaxPerOrigin {
			left[c.Origin]--
			gone[c.Key] = true
			evict = append(evict, c.Key)
		}
	}
	for _, c := range ordered {
		if b.MaxSessions > 0 && len(cands)-len(evict) > b.MaxSessions && !gone[c.Key] {
			evict = append(evict, c.Key)
		}
	}
	return evict
}

// checkTracker asserts where the clash tracker's nodes live: it links
// exactly each owned session's node, at the session's address, and each
// live cache entry's whose group lies in the space, at that group's
// address.
func checkTracker(t testing.TB, d *Directory) {
	t.Helper()
	linked := map[*clash.Node]mcast.Addr{}
	d.tracker.EachLinked(func(chain mcast.Addr, n *clash.Node) {
		if _, twice := linked[n]; twice {
			t.Fatalf("node of %s is on the chains twice", n.Key())
		}
		linked[n] = chain
	})
	want := map[*clash.Node]mcast.Addr{}
	for _, own := range d.owned {
		want[&own.node] = own.addr
	}
	for _, e := range d.cache.Live() {
		if idx, in := d.cfg.Space.Index(e.Desc.Group); in {
			want[e.Node()] = idx
		}
	}
	for n, addr := range want {
		if got, ok := linked[n]; !ok || got != addr {
			t.Fatalf("session %s at %d: node linked %v at %d", n.Key(), addr, ok, got)
		}
	}
	for n := range linked {
		if _, ok := want[n]; !ok {
			t.Fatalf("the tracker links a node of %s that is neither an owned session's nor a live, in-space cache entry's", n.Key())
		}
	}
}

// failNextAnnounce makes the directory's next CreateSession fail after
// allocation: with an IPv6 origin the description still validates, but
// SAP cannot carry it.
func failNextAnnounce(d *Directory, fn func()) {
	d.mu.Lock()
	v4 := d.cfg.Origin
	d.cfg.Origin = netip.MustParseAddr("2001:db8::1")
	d.mu.Unlock()
	fn()
	d.mu.Lock()
	d.cfg.Origin = v4
	d.mu.Unlock()
}

// TestCreateRollbackRetainsNothing: a create that allocates and then fails
// to announce leaves no owned session, the allocator state as it was, and
// no address the clash tracker would go on defending.
func TestCreateRollbackRetainsNothing(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	log := &eventLog{}
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, log)
	defer d.Close()

	desc := testDesc("doomed", 127)
	desc.ID = 777
	var err error
	d.mu.Lock()
	before := scanState(d)
	d.mu.Unlock()
	failNextAnnounce(d, func() { _, err = d.CreateSession(desc) })
	if !errors.Is(err, sap.ErrIPv6) {
		t.Fatalf("CreateSession error = %v, want %v", err, sap.ErrIPv6)
	}
	d.mu.Lock()
	owned, unchanged := len(d.owned), reflect.DeepEqual(d.state, before)
	tracked := false
	d.tracker.EachLinked(func(_ mcast.Addr, n *clash.Node) { tracked = tracked || n.Key() == "2001:db8::1/777" })
	d.mu.Unlock()
	if owned != 0 || !unchanged || tracked {
		t.Fatalf("after the failed create: %d owned, allocator state unchanged: %v, tracker still holds the address: %v", owned, unchanged, tracked)
	}
	checkIndices(t, d)

	// The batch path shares the rollback: sessions before the failure stay.
	failNextAnnounce(d, func() { _, err = d.CreateSessionBatch([]*session.Description{testDesc("a", 127), testDesc("b", 127)}) })
	if err == nil {
		t.Fatal("batch create with an unsendable origin succeeded")
	}
	good, err := d.CreateSession(testDesc("fine", 127))
	if err != nil {
		t.Fatal(err)
	}
	checkIndices(t, d)
	d.mu.Lock()
	defer d.mu.Unlock()
	want := allocator.NewState(d.cfg.Space.Size)
	want.Add(d.owned[good.Key()].addr, good.TTL)
	if len(d.owned) != 1 || !reflect.DeepEqual(d.state, want) {
		t.Fatalf("%d owned, allocator state %+v, want 1 and only %s filed", len(d.owned), d.state, good.Key())
	}
}

// TestDirectoryIndicesMatchRebuilds drives directories through seeded op
// sequences over the public API and the real receive
// path — heard sessions new, refreshed, bumped to another address or scope,
// deleted and resurrected; foreign-block and own-origin sessions; own
// announcements heard back; creates, batch creates, withdrawals, creates
// rolled back; forged clashes that move an owned session; budget evictions;
// Steps across the expiry horizon; and, for half the sequences, a start
// from an over-budget checkpoint that is trimmed on load — and after every
// op compares allocator state and plan with the rebuilds (checkIndices).
func TestDirectoryIndicesMatchRebuilds(t *testing.T) {
	const spaceSize = 64
	space := mcast.SyntheticSpace(spaceSize)
	foreign := mcast.AdminScopedSpace(16)
	self := netip.MustParseAddr("10.0.0.1")
	ttls := []mcast.TTL{15, 63, 127}
	var total Metrics
	rolledBack, heardBack := 0, 0

	// One checkpoint, bigger than the budget below, for the load-then-trim
	// sequences.
	var checkpoint *storage.MemFS
	{
		bus := transport.NewBus()
		clk := newFakeClock()
		donor, _ := newDirectory(t, bus, clk, "10.0.0.250", spaceSize, 1, nil)
		f := newForge(t, bus)
		for i := 0; i < 30; i++ {
			p := peerDesc(fmt.Sprintf("10.0.2.%d", 1+i%5), uint64(100+i), space, mcast.Addr(i), 127)
			f.send(sap.Announce, p.Origin, p)
			if i%3 == 0 {
				clk.Advance(time.Second)
			}
		}
		checkpoint = checkpointOf(t, donor)
	}

	// salt keeps the 24 op sequences the test ran when it also looped over
	// shard counts 1, 4 and 8 (the count was part of the generator's seed).
	for _, salt := range []uint64{1, 4, 8} {
		for seed := uint64(1); seed <= 8; seed++ {
			bus := transport.NewBus()
			clk := newFakeClock()
			d, err := New(Config{
				Origin:       self,
				Transport:    bus.Endpoint(),
				Space:        space,
				Allocator:    allocator.NewAdaptive(spaceSize, allocator.AdaptiveConfig{GapFraction: 0.2}),
				Clock:        clk.Now,
				Seed:         seed,
				MaxSessions:  20,
				MaxPerOrigin: 5,
				StaleAfter:   2 * time.Minute,
				CacheTimeout: 10 * time.Minute,
				Delay:        clash.NewUniformDelay(1000, 1001),
			})
			if err != nil {
				t.Fatal(err)
			}
			f := newForge(t, bus)
			ops := stats.NewRNG(seed<<8 | salt)
			if seed%2 == 0 {
				// The loaded population enters the allocator state as it
				// is restored.
				cs, _ := reopen(t, checkpoint, d)
				_ = cs.Close() // load only: the checkpoint is shared and never rewritten
				checkIndices(t, d, self)
			}
			ownKeys := func() []string {
				var keys []string
				for _, s := range d.OwnSessions() {
					keys = append(keys, s.Key())
				}
				return sortedStrings(keys)
			}
			ownDesc := func(key string) *session.Description {
				for _, s := range d.OwnSessions() {
					if s.Key() == key {
						return s
					}
				}
				return nil
			}

			for step := 0; step < 400; step++ {
				if ops.IntN(3) == 0 {
					clk.Advance(time.Duration(ops.IntN(40)) * time.Second)
				}
				peer := peerDesc(fmt.Sprintf("10.0.1.%d", 1+ops.IntN(6)), uint64(1+ops.IntN(8)), space, mcast.Addr(ops.IntN(spaceSize)), ttls[ops.IntN(len(ttls))])
				peer.Version = uint64(1 + ops.IntN(3))
				origin := peer.Origin
				switch op := ops.IntN(24); {
				case op < 8:
					f.send(sap.Announce, peer.Origin, peer)
				case op < 9:
					peer.Group = foreign.Group(mcast.Addr(ops.IntN(16)))
					f.send(sap.Announce, peer.Origin, peer)
				case op < 11:
					f.send(sap.Delete, peer.Origin, peer)
				case op < 12:
					// A session of our own origin that we do not own (a
					// previous incarnation's): cached, never a candidate.
					peer.Origin, origin = self, self
					f.send(sap.Announce, self, peer)
				case op < 14:
					// One of our own announcements heard back: from then on
					// the session is in the allocator state twice.
					if keys := ownKeys(); len(keys) > 0 {
						f.send(sap.Announce, self, ownDesc(keys[ops.IntN(len(keys))]))
						heardBack++
					}
				case op < 17:
					_, _ = d.CreateSession(testDesc(fmt.Sprintf("own-%d", step), ttls[ops.IntN(len(ttls))])) // a full space is part of the walk
				case op < 18:
					ttl := ttls[ops.IntN(len(ttls))]
					_, _ = d.CreateSessionBatch([]*session.Description{testDesc("b0", ttl), testDesc("b1", ttl), testDesc("b2", 15)})
				case op < 20:
					if keys := ownKeys(); len(keys) > 0 {
						if err := d.WithdrawSession(keys[ops.IntN(len(keys))]); err != nil {
							t.Fatal(err)
						}
					}
				case op < 21:
					failNextAnnounce(d, func() {
						if _, err := d.CreateSession(testDesc("doomed", 127)); errors.Is(err, sap.ErrIPv6) {
							rolledBack++
						}
					})
				case op < 22:
					// A forged clash: a foreign session at the address of one
					// of ours. Announced recently, ours moves (phase 2).
					if keys := ownKeys(); len(keys) > 0 {
						victim := ownDesc(keys[ops.IntN(len(keys))])
						peer.Group, peer.TTL, peer.ID = victim.Group, victim.TTL, uint64(50+ops.IntN(4))
						f.send(sap.Announce, peer.Origin, peer)
					}
				default:
					if ops.IntN(4) == 0 {
						clk.Advance(time.Duration(1+ops.IntN(6)) * time.Minute)
					}
					d.Step(clk.Now())
				}
				checkIndices(t, d, origin, self, netip.MustParseAddr("10.9.9.9"))
			}
			m := d.Metrics()
			total.Evictions += m.Evictions
			total.Shed += m.Shed
			total.QuotaDrops += m.QuotaDrops
			total.SessionsExpired += m.SessionsExpired
			total.ClashAddressChanges += m.ClashAddressChanges
			d.Close()
		}
	}
	for name, n := range map[string]uint64{
		"eviction": total.Evictions, "shed": total.Shed, "quota drop": total.QuotaDrops,
		"expiry": total.SessionsExpired, "clash move": total.ClashAddressChanges,
		"create rollback": uint64(rolledBack), "own announcement heard back": uint64(heardBack),
	} {
		if n == 0 {
			t.Errorf("no %s in any sequence: the generator no longer reaches it", name)
		}
	}
}

// fullBudgetDirectory returns a directory whose session budget of n is
// filled with n heard sessions that have all gone stale, so every newcomer
// is admitted by evicting one.
func fullBudgetDirectory(t *testing.T, n int) (*Directory, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	d, err := New(Config{
		Origin:       netip.MustParseAddr("10.0.0.1"),
		Transport:    transport.NewBus().Endpoint(),
		Clock:        clk.Now,
		Seed:         1,
		MaxSessions:  n,
		MaxPerOrigin: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		admitUnknown(d, heardDesc(i))
		if i%100 == 99 {
			clk.Advance(time.Second)
		}
	}
	clk.Advance(time.Hour / 2) // past StaleAfter, short of the cache timeout
	if got := d.CacheSize(); got != n {
		t.Fatalf("filled cache holds %d sessions, want %d", got, n)
	}
	return d, clk
}

// heardDesc is the i-th distinct foreign session: 100 per origin, each at
// its own address of the SAP dynamic block.
func heardDesc(i int) *session.Description {
	origin := netip.AddrFrom4([4]byte{10, 1, byte(i / 100 >> 8), byte(i / 100)})
	return peerDesc(origin.String(), uint64(1+i%100), mcast.SAPDynamicSpace(), mcast.Addr(i), 127)
}

// admitUnknown applies one announcement of desc the way the receive path
// does once it has decoded the datagram: with the payload and its digest,
// so a learn record journals the bytes the entry's digest is of.
func admitUnknown(d *Directory, desc *session.Description) {
	payload, err := desc.MarshalSDP()
	if err != nil {
		panic(err)
	}
	p := parsedPacket{
		pkt:    sap.Packet{Type: sap.Announce, Origin: desc.Origin, Payload: payload},
		digest: sap.PayloadDigest(d.digestSeed, payload),
		ok:     true,
	}
	d.mu.Lock()
	d.apply(&p, d.cfg.Clock())
	d.mu.Unlock()
}

// TestAdmitAndCreateAllocationsIndependentOfCacheSize pins what the
// maintained indices buy: admitting an unknown session into a full budget
// (one eviction each time) and creating a session allocate the same at
// 10 000 cached sessions as at 1 000 — the old candidate and view rebuilds
// allocated per cached session.
func TestAdmitAndCreateAllocationsIndependentOfCacheSize(t *testing.T) {
	const runs = 40
	var admit, create [2]float64
	for i, n := range []int{1000, 10000} {
		d, _ := fullBudgetDirectory(t, n)
		next := n
		admit[i] = testing.AllocsPerRun(runs, func() {
			admitUnknown(d, heardDesc(next))
			next++
		})
		if m := d.Metrics(); m.Evictions != runs+1 || m.Shed != 0 || d.CacheSize() != n {
			t.Fatalf("n=%d: %d evictions, %d shed, cache %d: not one eviction per admission", n, m.Evictions, m.Shed, d.CacheSize())
		}
		create[i] = testing.AllocsPerRun(runs, func() {
			if _, err := d.CreateSession(testDesc("own", 127)); err != nil {
				t.Fatal(err)
			}
		})
		checkIndices(t, d, heardDesc(next).Origin)
		d.Close()
	}
	// The same, give or take a map or a pooled buffer growing at one size
	// and not the other (the race detector shifts those): a rebuild would
	// differ by thousands.
	if d := admit[0] - admit[1]; d < -2 || d > 2 {
		t.Errorf("admitting into a full budget: %v allocs at 1k cached sessions, %v at 10k", admit[0], admit[1])
	}
	if d := create[0] - create[1]; d < -2 || d > 2 {
		t.Errorf("CreateSession: %v allocs at 1k cached sessions, %v at 10k", create[0], create[1])
	}
	// What a create keeps — its copy of the description and of the media,
	// the key, the owned record, the clash tracker's entry — and the Bus
	// sending the announcement; the datagram itself is written into the
	// recycled arena of the last flush.
	for i, n := range create {
		if n > 8 {
			t.Errorf("CreateSession at %dk cached sessions: %v allocs, want <= 8", []int{1, 10}[i], n)
		}
	}
	t.Logf("allocs per admission %v, per create %v", admit[0], create[0])
}
