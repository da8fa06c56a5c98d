package sessiondir

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// The tests in this file pin who tracks a session in the clash tracker and
// for how long: the directory its own sessions, from create to withdrawal,
// and the cache its members, the live entries inside the space (checkTracker
// says it after every op of the index tests). A session we own has one
// record, the owned one: the cache never holds its key, whoever announces
// it (checkIndices says that too).

// TestCreateSessionRefusesOwnedKey: creating a session under the key of
// one we own — alone, in a batch, or twice in one batch — is refused before
// anything is allocated, and leaves the first session, the allocator state
// and the RNG as they were.
func TestCreateSessionRefusesOwnedKey(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	defer d.Close()
	// twin makes the same sessions and is asked for no refused one.
	twin, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 64, 1, nil)
	defer twin.Close()
	withID := func(name string, id uint64) *session.Description {
		desc := testDesc(name, 127)
		desc.ID = id
		return desc
	}
	for _, dir := range []*Directory{d, twin} {
		if _, err := dir.CreateSession(withID("five", 5)); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := d.CreateSession(withID("five again", 5)); err == nil {
		t.Fatal("re-creating an owned key succeeded")
	}
	out, err := d.CreateSessionBatch([]*session.Description{withID("six", 6), withID("five again", 5)})
	if err == nil || len(out) != 1 {
		t.Fatalf("a batch re-creating an owned key: %d created, error %v; want 1 and an error", len(out), err)
	}
	out, err = d.CreateSessionBatch([]*session.Description{withID("seven", 7), withID("seven again", 7)})
	if err == nil || len(out) != 1 {
		t.Fatalf("a batch creating one key twice: %d created, error %v; want 1 and an error", len(out), err)
	}
	for _, batch := range [][]*session.Description{{withID("six", 6)}, {withID("seven", 7)}} {
		if _, err := twin.CreateSessionBatch(batch); err != nil {
			t.Fatal(err)
		}
	}

	checkIndices(t, d)
	d.mu.Lock()
	defer d.mu.Unlock()
	if want := scanState(d); !reflect.DeepEqual(d.state, want) {
		t.Fatalf("allocator state %+v, rebuilt %+v", d.state, want)
	}
	if len(d.owned) != 3 || d.owned["10.0.0.1/5"].desc.Name != "five" {
		t.Fatalf("%d owned sessions, want 5, 6 and 7 with 5 the first made", len(d.owned))
	}
	if a, b := d.rng.Uint64(), twin.rng.Uint64(); a != b {
		t.Fatal("a refused create drew from the RNG")
	}
}

// TestWithdrawTombstonesOurEcho: a third party's re-announcement of a
// session we own (§3's phase 3) leaves no second record of it, so
// withdrawing the session leaves nothing behind: it is no longer listed or
// filed in the allocator state, the journal holds nothing of it, and a
// recovered cache does not list it either.
func TestWithdrawTombstonesOurEcho(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	defer d.Close()
	fs := storage.NewMemFS()
	cs, _ := reopen(t, fs, d)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	own, err := d.CreateSession(testDesc("echoed", 127))
	if err != nil {
		t.Fatal(err)
	}
	newForge(t, bus).send(sap.Announce, own.Origin, own)
	if n := d.CacheSize(); n != 0 {
		t.Fatalf("the cache holds %d entries after a third party's copy of our session, want 0", n)
	}
	if err := d.WithdrawSession(own.Key()); err != nil {
		t.Fatal(err)
	}
	if knowsKey(d, own.Key()) {
		t.Fatal("a withdrawn session is still listed")
	}
	d.mu.Lock()
	idx, _ := d.cfg.Space.Index(own.Group)
	filed := d.state.Has(idx)
	d.mu.Unlock()
	if filed {
		t.Fatalf("the allocator state still holds the withdrawn session's address %d", idx)
	}
	checkIndices(t, d)
	if n := cs.JournalRecords(); n != 0 {
		t.Fatalf("journal holds %d records, want nothing of our session", n)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.2", 64, 2, nil)
	defer recovered.Close()
	reopen(t, fs, recovered)
	if knowsKey(recovered, own.Key()) {
		t.Fatal("a cache recovered from the journal lists the withdrawn session")
	}
}

// TestOwnedSessionDefendsAfterItsEchoExpires: an owned session a third
// party re-announced is still ours to defend once a cache timeout has
// passed: the copy was never cached, so nothing of it expires, and a later
// session at its address meets a phase-1 re-announcement or a phase-2
// move.
func TestOwnedSessionDefendsAfterItsEchoExpires(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	defer d.Close()
	f := newForge(t, bus)
	own, err := d.CreateSession(testDesc("defended", 127))
	if err != nil {
		t.Fatal(err)
	}
	f.send(sap.Announce, own.Origin, own)
	d.Step(clk.Advance(d.cache.Timeout() + time.Minute))
	if m := d.Metrics(); d.CacheSize() != 0 || m.SessionsLearned != 0 || m.SessionsExpired != 0 {
		t.Fatalf("a third party's copy of our session: cache size %d, %d learned, %d expired; want none",
			d.CacheSize(), m.SessionsLearned, m.SessionsExpired)
	}
	checkIndices(t, d)

	idx, _ := d.cfg.Space.Index(own.Group)
	intruder := peerDesc("10.0.0.66", 9, d.cfg.Space, idx, 127)
	before := d.Metrics()
	f.send(sap.Announce, intruder.Origin, intruder)
	after := d.Metrics()
	if after.ClashDefensesOwn == before.ClashDefensesOwn && after.ClashAddressChanges == before.ClashAddressChanges {
		t.Fatal("a session at our address met neither a re-announcement nor a move")
	}
	checkIndices(t, d)
}

// TestHeardOwnSessionIsFiledOnce: DAIPR places a band from the count of
// sessions per TTL, so each must count once. A directory whose four
// sessions a third party re-announces verbatim caches, learns and
// journals nothing of them, and places its next four sessions where a
// same-seed twin that heard nothing does.
func TestHeardOwnSessionIsFiledOnce(t *testing.T) {
	clk := newFakeClock()
	bus := transport.NewBus()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 256, 7, nil)
	defer d.Close()
	twin, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 256, 7, nil)
	defer twin.Close()
	cs, _ := reopen(t, storage.NewMemFS(), d)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	third := newForge(t, bus)
	create := func(dir *Directory, name string, ttl mcast.TTL) *session.Description {
		t.Helper()
		own, err := dir.CreateSession(testDesc(name, ttl))
		if err != nil {
			t.Fatal(err)
		}
		return own
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("wide-%d", i)
		third.send(sap.Announce, d.cfg.Origin, create(d, name, 127))
		create(twin, name, 127)
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("local-%d", i)
		if got, want := create(d, name, 15).Group, create(twin, name, 15).Group; got != want {
			t.Fatalf("TTL-15 session %d placed at %s, the twin that heard nothing placed it at %s", i, got, want)
		}
	}
	if m := d.Metrics(); d.CacheSize() != 0 || m.SessionsLearned != 0 {
		t.Fatalf("cache size %d and %d learned after hearing our own sessions, want 0 and 0", d.CacheSize(), m.SessionsLearned)
	}
	if n := cs.JournalRecords(); n != 0 {
		t.Fatalf("journal holds %d records, want nothing of our sessions", n)
	}
	checkIndices(t, d)
}

// TestSessionHeardOutsideSpaceLeavesNoPhantom: a heard session re-announced
// with a new version at a group outside the space leaves nothing at its
// old address in the tracker, so a later session there schedules no
// defence naming it, and no phase-3 defence re-announces it.
func TestSessionHeardOutsideSpaceLeavesNoPhantom(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	defer d.Close()
	f := newForge(t, bus)
	left := peerDesc("10.0.0.66", 1, d.cfg.Space, 5, 127)
	f.send(sap.Announce, left.Origin, left)
	clk.Advance(time.Second)
	left.Version, left.Group = 2, mcast.AdminScopedSpace(16).Group(0)
	f.send(sap.Announce, left.Origin, left)
	checkIndices(t, d)

	clk.Advance(time.Second)
	later := peerDesc("10.0.0.77", 2, d.cfg.Space, 5, 127)
	f.send(sap.Announce, later.Origin, later)
	d.mu.Lock()
	pending := d.tracker.PendingDefenses()
	d.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d defences pending after a session at an address nothing else holds", pending)
	}
	d.Step(clk.Advance(2 * time.Second))
	if n := d.Metrics().ClashDefensesThird; n != 0 {
		t.Fatalf("%d phase-3 defences sent for a session that left the address", n)
	}
	checkIndices(t, d)
}

// TestCreateTakesOverAHeardKey: creating a session under a key heard from
// our own origin (a previous incarnation's) makes the owned record the
// session's only one: the heard entry leaves the cache, its address the
// allocator state and its node the tracker, with one journaled key delta
// and no event, so a recovered cache does not list it; and a session
// later heard at the new address meets the owner's reaction.
func TestCreateTakesOverAHeardKey(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	var log eventLog
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, &log)
	defer d.Close()
	fs := storage.NewMemFS()
	cs, _ := reopen(t, fs, d)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f := newForge(t, bus)
	old := peerDesc("10.0.0.1", 9, d.cfg.Space, 3, 127)
	f.send(sap.Announce, old.Origin, old)
	checkIndices(t, d)

	desc := testDesc("again", 127)
	desc.ID = 9
	heard := len(log.events)
	own, err := d.CreateSession(desc)
	if err != nil {
		t.Fatal(err)
	}
	checkIndices(t, d)
	d.mu.Lock()
	_, cached := d.cache.Peek(own.Key())
	filed := d.state.Has(3)
	d.mu.Unlock()
	if cached || d.CacheSize() != 0 {
		t.Fatalf("the heard entry is still cached (%v), cache size %d", cached, d.CacheSize())
	}
	if idx, _ := d.cfg.Space.Index(own.Group); idx != 3 && filed {
		t.Fatal("the allocator state still holds the heard entry's address 3")
	}
	var kinds []EventKind
	for _, e := range log.events[heard:] {
		kinds = append(kinds, e.Kind)
	}
	if want := []EventKind{obs.TraceAllocate, obs.TraceAnnounce}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("the create recorded %v, want %v", kinds, want)
	}
	if n := cs.JournalRecords(); n != 2 {
		t.Fatalf("journal holds %d records, want the heard entry's learn and its removal", n)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.2", 64, 2, nil)
	defer recovered.Close()
	reopen(t, fs, recovered)
	if knowsKey(recovered, own.Key()) {
		t.Fatal("a cache recovered from the journal lists the heard entry the create took over")
	}

	idx, _ := d.cfg.Space.Index(own.Group)
	intruder := peerDesc("10.0.0.66", 1, d.cfg.Space, idx, 127)
	f.send(sap.Announce, intruder.Origin, intruder)
	if m := d.Metrics(); m.ClashDefensesOwn+m.ClashAddressChanges == 0 {
		t.Fatal("a session at our address met neither a re-announcement nor a move")
	}
	checkIndices(t, d)
}

// TestRecoverySkipsOwnedKey: a checkpoint recovered into a directory that
// already owns one of the sessions in it (a peer's checkpoint, which heard
// the session) restores everything but that session, whose owned record
// stays its only one.
func TestRecoverySkipsOwnedKey(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	defer d.Close()
	peer, _ := newDirectory(t, bus, clk, "10.0.0.2", 64, 2, nil)
	defer peer.Close()
	own, err := d.CreateSession(testDesc("ours", 127))
	if err != nil {
		t.Fatal(err)
	}
	theirs, err := peer.CreateSession(testDesc("theirs", 127))
	if err != nil {
		t.Fatal(err)
	}
	other := peerDesc("10.0.0.3", 1, d.cfg.Space, 40, 127)
	newForge(t, bus).send(sap.Announce, other.Origin, other)
	if !knowsKey(peer, own.Key()) {
		t.Fatal("the peer did not hear our session")
	}
	fs := checkpointOf(t, peer)

	reopen(t, fs, d)
	checkIndices(t, d)
	var keys []string
	for _, s := range d.Sessions() {
		keys = append(keys, s.Key())
	}
	if want := []string{own.Key(), theirs.Key(), other.Key()}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("after recovery the directory lists %v, want %v", keys, want)
	}
	if n := d.CacheSize(); n != 2 {
		t.Fatalf("cache size %d after recovery, want 2: the other sites' sessions", n)
	}
}
