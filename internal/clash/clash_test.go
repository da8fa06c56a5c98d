package clash

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

func TestUniformDelayBounds(t *testing.T) {
	u := NewUniformDelay(200, 800)
	rng := stats.NewRNG(1)
	var s stats.Summary
	for i := 0; i < 20000; i++ {
		d := u.Sample(rng)
		if d < 200 || d > 800 {
			t.Fatalf("delay %v outside window", d)
		}
		s.Add(d)
	}
	if math.Abs(s.Mean()-500) > 10 {
		t.Fatalf("mean %v, want ~500", s.Mean())
	}
	if u.Name() != "uniform" {
		t.Fatal("name")
	}
	d1, d2 := u.Window()
	if d1 != 200 || d2 != 800 {
		t.Fatal("window")
	}
}

func TestUniformDelayValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewUniformDelay(500, 100)
}

func TestExponentialDelayBounds(t *testing.T) {
	e := NewExponentialDelay(0, 3200, 200)
	rng := stats.NewRNG(2)
	for i := 0; i < 20000; i++ {
		d := e.Sample(rng)
		if d < 0 || d > 3200+1e-9 {
			t.Fatalf("delay %v outside window", d)
		}
	}
}

func TestExponentialDelaySkewsLate(t *testing.T) {
	// The whole point: early buckets are exponentially unlikely. The
	// probability of landing in the first half of the window must be far
	// below 1/2.
	e := NewExponentialDelay(0, 3200, 200)
	rng := stats.NewRNG(3)
	const n = 50000
	early := 0
	for i := 0; i < n; i++ {
		if e.Sample(rng) < 1600 {
			early++
		}
	}
	frac := float64(early) / n
	// P(D < D2/2) = (2^(d/2)−1)/(2^d−1) ≈ 2^(−d/2) = 2⁻⁸ here.
	if frac > 0.02 {
		t.Fatalf("first-half fraction %v, want ≈2^-8", frac)
	}
}

func TestExponentialDelayMatchesBucketWeights(t *testing.T) {
	// With d buckets, bucket b should receive ≈ 2^(b-1)/(2^d −1) of the
	// samples.
	e := NewExponentialDelay(0, 800, 200) // d = 4
	rng := stats.NewRNG(4)
	const n = 200000
	var counts [4]int
	for i := 0; i < n; i++ {
		b := int(e.Sample(rng) / 200)
		if b == 4 {
			b = 3 // boundary value
		}
		counts[b]++
	}
	total := float64(1<<4 - 1)
	for b := 0; b < 4; b++ {
		want := math.Exp2(float64(b)) / total
		got := float64(counts[b]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("bucket %d: got %v want %v", b, got, want)
		}
	}
}

func TestExponentialDelayLargeD2Stable(t *testing.T) {
	// d = 65536 buckets: must not overflow to +Inf.
	e := NewExponentialDelay(0, 13107200, 200)
	rng := stats.NewRNG(5)
	for i := 0; i < 1000; i++ {
		d := e.Sample(rng)
		if math.IsInf(d, 0) || math.IsNaN(d) || d < 0 || d > 13107200 {
			t.Fatalf("unstable sample %v", d)
		}
	}
}

func TestExponentialDelayPropertyInWindow(t *testing.T) {
	err := quick.Check(func(seed uint64, d1Raw, spanRaw uint16) bool {
		d1 := float64(d1Raw)
		d2 := d1 + float64(spanRaw) + 1
		e := NewExponentialDelay(d1, d2, 200)
		d := e.Sample(stats.NewRNG(seed))
		return d >= d1 && d <= d2+1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func newTracker(t *testing.T) *Tracker {
	t.Helper()
	return NewTracker(TrackerConfig{
		RecentWindow: 1000,
		Delay:        NewExponentialDelay(0, 3200, 200),
	}, stats.NewRNG(42))
}

func TestTrackerPhase1DefendLongStanding(t *testing.T) {
	tr := newTracker(t)
	tr.AnnounceOwn("ours", 7, 127, 0)
	// Long after our announcement, an intruder shows up on our address.
	acts := tr.Observe(Observation{Key: "intruder", Addr: 7, TTL: 127, At: 5000})
	if len(acts) != 1 || acts[0].Kind != ActionResendOwn || acts[0].Key != "ours" {
		t.Fatalf("actions = %+v", acts)
	}
}

func TestTrackerPhase2MoveWhenRecent(t *testing.T) {
	tr := newTracker(t)
	tr.AnnounceOwn("ours", 7, 127, 0)
	// Within the recent window: we lose the race and must move.
	acts := tr.Observe(Observation{Key: "rival", Addr: 7, TTL: 127, At: 500})
	if len(acts) != 1 || acts[0].Kind != ActionModifyAddress || acts[0].Key != "ours" {
		t.Fatalf("actions = %+v", acts)
	}
}

func TestTrackerPhase3ThirdPartyDefense(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(Observation{Key: "old", Addr: 9, TTL: 63, At: 0})
	acts := tr.Observe(Observation{Key: "new", Addr: 9, TTL: 63, At: 100})
	if len(acts) != 0 {
		t.Fatalf("third party should not act immediately: %+v", acts)
	}
	if tr.PendingDefenses() != 1 {
		t.Fatalf("pending = %d", tr.PendingDefenses())
	}
	// Before the timer: nothing due.
	if due := tr.Due(100); len(due) != 0 {
		t.Fatalf("premature due: %+v", due)
	}
	// Long after the window: defense fires for the *older* session.
	due := tr.Due(100 + 3200 + 1)
	if len(due) != 1 || due[0].Kind != ActionDefendOther || due[0].Key != "old" {
		t.Fatalf("due = %+v", due)
	}
	// One-shot.
	if due := tr.Due(1e9); len(due) != 0 {
		t.Fatalf("defense fired twice: %+v", due)
	}
}

func TestTrackerDefenseCancelledByReannouncement(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(Observation{Key: "old", Addr: 9, TTL: 63, At: 0})
	tr.Observe(Observation{Key: "new", Addr: 9, TTL: 63, At: 100})
	// The original owner re-announces at the same address: suppression.
	tr.Observe(Observation{Key: "old", Addr: 9, TTL: 63, At: 200})
	if due := tr.Due(1e9); len(due) != 0 {
		t.Fatalf("cancelled defense fired: %+v", due)
	}
}

func TestTrackerDefenseCancelledByIntruderMoving(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(Observation{Key: "old", Addr: 9, TTL: 63, At: 0})
	tr.Observe(Observation{Key: "new", Addr: 9, TTL: 63, At: 100})
	// The newcomer re-announces at a different address: clash resolved.
	tr.Observe(Observation{Key: "new", Addr: 10, TTL: 63, At: 300})
	if due := tr.Due(1e9); len(due) != 0 {
		t.Fatalf("cancelled defense fired: %+v", due)
	}
}

func TestTrackerDefenseCancelledByDefendedMoving(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(Observation{Key: "old", Addr: 9, TTL: 63, At: 0})
	tr.Observe(Observation{Key: "new", Addr: 9, TTL: 63, At: 100})
	// The older session's owner is alive and has moved it off the clash:
	// nobody needs to re-announce it on the owner's behalf.
	tr.Observe(Observation{Key: "old", Addr: 10, TTL: 63, At: 300})
	if due := tr.Due(math.Inf(1)); len(due) != 0 {
		t.Fatalf("defense of a moved session fired: %+v", due)
	}
}

func TestTrackerNoDuplicateDefenses(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(Observation{Key: "old", Addr: 9, TTL: 63, At: 0})
	tr.Observe(Observation{Key: "new", Addr: 9, TTL: 63, At: 100})
	// Hearing the same clashing announcement again must not stack timers.
	tr.Observe(Observation{Key: "new", Addr: 9, TTL: 63, At: 700})
	if got := tr.PendingDefenses(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
}

func TestTrackerMovedSessionClashesAgain(t *testing.T) {
	tr := newTracker(t)
	tr.AnnounceOwn("ours", 5, 63, 0)
	tr.Observe(Observation{Key: "other", Addr: 4, TTL: 63, At: 10})
	// "other" moves onto our address much later: phase 1 defense.
	acts := tr.Observe(Observation{Key: "other", Addr: 5, TTL: 63, At: 5000})
	if len(acts) != 1 || acts[0].Kind != ActionResendOwn {
		t.Fatalf("actions = %+v", acts)
	}
}

func TestTrackerOwnAddressChangeCancelsDefense(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(Observation{Key: "old", Addr: 9, TTL: 63, At: 0})
	// We announce a clashing session... as a third party's cache sees it.
	tr.Observe(Observation{Key: "mine", Addr: 9, TTL: 63, At: 50})
	if tr.PendingDefenses() != 1 {
		t.Fatalf("pending = %d", tr.PendingDefenses())
	}
	// Now the tracker's site takes ownership of "mine" and moves it.
	tr.AnnounceOwn("mine", 11, 63, 100)
	if due := tr.Due(1e9); len(due) != 0 {
		t.Fatalf("defense fired after intruder moved: %+v", due)
	}
}

func TestTrackerForget(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(Observation{Key: "old", Addr: 9, TTL: 63, At: 0})
	tr.Observe(Observation{Key: "new", Addr: 9, TTL: 63, At: 100})
	tr.Forget("old")
	if _, ok := tr.CachedAddr("old"); ok {
		t.Fatal("forgot session still cached")
	}
	if due := tr.Due(1e9); len(due) != 0 {
		t.Fatalf("defense for forgotten session fired: %+v", due)
	}
}

func TestTrackerCachedAddr(t *testing.T) {
	tr := newTracker(t)
	tr.Observe(Observation{Key: "s", Addr: 3, TTL: 15, At: 0})
	if a, ok := tr.CachedAddr("s"); !ok || a != 3 {
		t.Fatalf("CachedAddr = %v %v", a, ok)
	}
	if _, ok := tr.CachedAddr("missing"); ok {
		t.Fatal("missing key found")
	}
}

// TestTrackerMutualLongStandingTieBreak: after a partition heals, both
// owners are long-standing. Repeated mutual defenses must converge via the
// deterministic tie-break: the lexicographically larger key moves.
func TestTrackerMutualLongStandingTieBreak(t *testing.T) {
	mk := func(ownKey SessionKey) *Tracker {
		tr := newTracker(t)
		tr.AnnounceOwn(ownKey, 7, 191, 0)
		return tr
	}
	loser := mk("zzz") // larger key: must eventually move
	winner := mk("aaa")

	// Each observes the other's (unchanging) re-announcements.
	now := 100000.0
	var loserMoved, winnerMoved bool
	for round := 0; round < 6; round++ {
		for _, a := range loser.Observe(Observation{Key: "aaa", Addr: 7, TTL: 191, At: now}) {
			if a.Kind == ActionModifyAddress {
				loserMoved = true
			}
		}
		for _, a := range winner.Observe(Observation{Key: "zzz", Addr: 7, TTL: 191, At: now}) {
			if a.Kind == ActionModifyAddress {
				winnerMoved = true
			}
		}
		now += 1000
	}
	if !loserMoved {
		t.Fatal("larger-key owner never moved: stand-off live-lock")
	}
	if winnerMoved {
		t.Fatal("smaller-key owner moved: both sides lost the tie-break")
	}
	// Once the loser moves, its counters reset.
	loser.AnnounceOwn("zzz", 8, 191, now)
	if got := loser.PendingDefenses(); got != 0 {
		t.Fatalf("pending after move: %d", got)
	}
}

func TestTrackerRequiresDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracker(TrackerConfig{RecentWindow: 10}, stats.NewRNG(1))
}

// refTracker is the tracker as it was before the address index and the
// hinted defence list: the same protocol, with every clash check a scan of
// the whole cache and every pending defence a record in a slice, flagged
// done when cancelled and looked up before one is scheduled. It is the
// oracle of TestTrackerMatchesFullScanReference.
type refTracker struct {
	cfg      TrackerConfig
	rng      *stats.RNG
	cache    map[SessionKey]*refEntry
	pending  []*refDefense
	defenses map[defensePair]int
}

type refDefense struct {
	defended, intruder SessionKey
	dueAt              float64
	done               bool
}

type refEntry struct {
	addr         mcast.Addr
	firstSeen    float64
	owned        bool
	ownFirstSent float64
}

func (t *refTracker) AnnounceOwn(key SessionKey, addr mcast.Addr, at float64) {
	e := t.cache[key]
	if e == nil {
		e = &refEntry{firstSeen: at}
		t.cache[key] = e
	}
	if !e.owned {
		e.owned, e.ownFirstSent = true, at
	}
	if e.addr != addr {
		t.moved(key)
	}
	e.addr = addr
}

func (t *refTracker) Forget(key SessionKey) {
	delete(t.cache, key)
	t.clearCounters(key)
	for _, p := range t.pending {
		if p.defended == key || p.intruder == key {
			p.done = true
		}
	}
}

func (t *refTracker) Observe(obs Observation) []Action {
	e, ok := t.cache[obs.Key]
	if !ok {
		t.cache[obs.Key] = &refEntry{addr: obs.Addr, firstSeen: obs.At}
		return t.checkClash(obs, false)
	}
	moved := e.addr != obs.Addr
	if moved {
		t.moved(obs.Key)
	} else {
		for _, p := range t.pending {
			if p.defended == obs.Key {
				p.done = true
			}
		}
	}
	e.addr = obs.Addr
	if e.owned {
		return nil
	}
	return t.checkClash(obs, !moved)
}

// moved resolves what waited on key changing address: the defences it
// intruded on and those owed to it, whose owner is alive.
func (t *refTracker) moved(key SessionKey) {
	for _, p := range t.pending {
		if p.defended == key || p.intruder == key {
			p.done = true
		}
	}
	t.clearCounters(key)
}

func (t *refTracker) clearCounters(key SessionKey) {
	for pair := range t.defenses {
		if pair.ours == key || pair.intruder == key {
			delete(t.defenses, pair)
		}
	}
}

func (t *refTracker) checkClash(obs Observation, ownedOnly bool) []Action {
	var clashing []SessionKey
	for key, e := range t.cache {
		if key != obs.Key && e.addr == obs.Addr && (e.owned || !ownedOnly) {
			clashing = append(clashing, key)
		}
	}
	sort.Slice(clashing, func(i, j int) bool { return clashing[i] < clashing[j] })
	var actions []Action
	for _, key := range clashing {
		e := t.cache[key]
		switch {
		case e.owned && obs.At-e.ownFirstSent > t.cfg.RecentWindow:
			pair := defensePair{ours: key, intruder: obs.Key}
			t.defenses[pair]++
			kind := ActionResendOwn
			if t.defenses[pair] > 2 && key > obs.Key {
				kind = ActionModifyAddress
			}
			actions = append(actions, Action{Kind: kind, Key: key, DueAt: obs.At})
		case e.owned:
			actions = append(actions, Action{Kind: ActionModifyAddress, Key: key, DueAt: obs.At})
		default:
			older, newer := key, obs.Key
			if t.cache[older].firstSeen > t.cache[newer].firstSeen {
				older, newer = newer, older
			}
			armed := false
			for _, p := range t.pending {
				armed = armed || (!p.done && p.defended == older && p.intruder == newer)
			}
			if !armed {
				t.pending = append(t.pending, &refDefense{
					defended: older, intruder: newer, dueAt: obs.At + t.cfg.Delay.Sample(t.rng),
				})
			}
		}
	}
	return actions
}

func (t *refTracker) Due(now float64) []Action {
	var out []Action
	kept := t.pending[:0]
	for _, p := range t.pending {
		switch {
		case p.done:
		case p.dueAt <= now:
			out = append(out, Action{Kind: ActionDefendOther, Key: p.defended, DueAt: p.dueAt})
		default:
			kept = append(kept, p)
		}
	}
	t.pending = kept
	return out
}

// checkIndex asserts the tracker's index invariants: every cached entry is
// on exactly the chain of its address, and nothing else is on any chain;
// every pending defence names two cached entries on one chain, each
// carrying the hint of its role.
func checkIndex(t *testing.T, tr *Tracker) {
	t.Helper()
	chained := 0
	for addr, head := range tr.byAddr {
		if head == nil {
			t.Fatalf("address %d has an empty chain", addr)
		}
		for e := head; e != nil; e = e.next {
			chained++
			if chained > len(tr.cache) {
				t.Fatalf("chains hold more than the %d cached entries (cycle or duplicate)", len(tr.cache))
			}
			if e.addr != addr || tr.cache[e.key] != e {
				t.Fatalf("entry %q (addr %d) is on the chain of %d, or not the cached entry", e.key, e.addr, addr)
			}
		}
	}
	if chained != len(tr.cache) {
		t.Fatalf("%d entries on chains, %d cached", chained, len(tr.cache))
	}
	for _, d := range tr.pending {
		old, intr := d.defended, d.intruder
		if old == intr || tr.cache[old.key] != old || tr.cache[intr.key] != intr || old.addr != intr.addr {
			t.Fatalf("defence of %q against %q: not two cached entries on one chain", old.key, intr.key)
		}
		if !old.defended || !intr.intruding {
			t.Fatalf("defence of %q against %q: hints defended=%v intruding=%v", old.key, intr.key, old.defended, intr.intruding)
		}
	}
}

// TestCacheEntryFitsSizeClass pins the tracker entry, defence hints and
// all, inside the allocator's 48-byte size class.
func TestCacheEntryFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(cacheEntry{}); n > 48 {
		t.Fatalf("cacheEntry is %d bytes, past the 48-byte size class", n)
	}
}

// TestTrackerMatchesFullScanReference drives the indexed tracker and the
// full-scan reference through the same seeded op sequences — a dozen
// sessions crowded onto four addresses, owned and third-party, with the
// clock stepping both inside and past RecentWindow — and requires the same
// actions, the same pending-defense count and the same RNG position after
// every one of 10⁵ ops. Due must hand over defences falling due together
// in the order they were scheduled, so some Due call must return several.
func TestTrackerMatchesFullScanReference(t *testing.T) {
	cfg := TrackerConfig{RecentWindow: 1000, Delay: NewExponentialDelay(0, 3200, 200)}
	sameActions := func(a, b []Action) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	seen := map[ActionKind]int{}
	crowded, severalDue := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		tr := NewTracker(cfg, stats.NewRNG(seed))
		ref := &refTracker{cfg: cfg, rng: stats.NewRNG(seed),
			cache: map[SessionKey]*refEntry{}, defenses: map[defensePair]int{}}
		ops := stats.NewRNG(seed ^ 0xd1ff)
		keys := make([]SessionKey, 12)
		for i := range keys {
			keys[i] = SessionKey(fmt.Sprintf("10.0.0.%d/%d", i%5, i))
		}
		at := 0.0
		for step := 0; step < 5000; step++ {
			at += float64(ops.IntN(700))
			key := keys[ops.IntN(len(keys))]
			addr := mcast.Addr(ops.IntN(4))
			var got, want []Action
			switch op := ops.IntN(20); {
			case op < 11:
				// Mostly unchanged re-announcements, as on a real listener.
				if cur, ok := tr.CachedAddr(key); ok && ops.IntN(4) > 0 {
					addr = cur
				}
				obs := Observation{Key: key, Addr: addr, TTL: 127, At: at}
				got, want = tr.Observe(obs), ref.Observe(obs)
			case op < 14:
				tr.AnnounceOwn(key, addr, 127, at)
				ref.AnnounceOwn(key, addr, at)
			case op < 17:
				tr.Forget(key)
				ref.Forget(key)
			default:
				got, want = tr.Due(at), ref.Due(at)
				if len(got) > 1 {
					severalDue++
				}
			}
			if !sameActions(got, want) {
				t.Fatalf("seed %d step %d: actions %v, reference %v", seed, step, got, want)
			}
			for _, a := range got {
				seen[a.Kind]++
			}
			refPending := 0
			for _, p := range ref.pending {
				if !p.done {
					refPending++
				}
			}
			if tr.PendingDefenses() != refPending {
				t.Fatalf("seed %d step %d: %d pending defenses, reference %d", seed, step, tr.PendingDefenses(), refPending)
			}
			if a, b := tr.rng.Uint64(), ref.rng.Uint64(); a != b {
				t.Fatalf("seed %d step %d: RNG streams diverged", seed, step)
			}
			checkIndex(t, tr)
			for e, n := tr.byAddr[addr], 0; e != nil; e = e.next {
				if n++; n == 3 {
					crowded++
				}
			}
		}
		for _, key := range keys {
			tr.Forget(key)
		}
		checkIndex(t, tr)
		if len(tr.byAddr) != 0 || tr.PendingDefenses() != 0 {
			t.Fatalf("seed %d: %d address chains and %d defences left in an empty tracker", seed, len(tr.byAddr), tr.PendingDefenses())
		}
	}
	for _, k := range []ActionKind{ActionResendOwn, ActionModifyAddress, ActionDefendOther} {
		if seen[k] == 0 {
			t.Errorf("no %v action in any sequence: the generator no longer reaches that phase", k)
		}
	}
	if crowded == 0 {
		t.Error("no op ever touched an address shared by three sessions")
	}
	if severalDue == 0 {
		t.Error("no Due call returned two or more defences: their order is never compared")
	}
}

// TestTrackerObserveKnownSessionAllocatesNothing pins the listener fast
// path: re-announcing a known, unmoved session costs no allocation.
func TestTrackerObserveKnownSessionAllocatesNothing(t *testing.T) {
	tr := newTracker(t)
	for i := 0; i < 1000; i++ {
		tr.Observe(Observation{Key: SessionKey(fmt.Sprintf("10.0.0.1/%d", i)), Addr: mcast.Addr(i), TTL: 127})
	}
	obs := Observation{Key: "10.0.0.1/500", Addr: 500, TTL: 127, At: 5000}
	if n := testing.AllocsPerRun(100, func() { tr.Observe(obs) }); n != 0 {
		t.Fatalf("Observe of an unchanged known session: %v allocs, want 0", n)
	}
}
