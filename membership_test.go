package sessiondir

import (
	"reflect"
	"testing"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// The tests in this file pin who tracks a session in the clash tracker and
// for how long: the directory its own sessions, from create to withdrawal,
// and the cache its members, the live entries inside the space that are
// not ours (checkTracker says it after every op of the index tests).

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

// TestWithdrawTombstonesOurEcho: withdrawing a session whose announcement
// we heard back tombstones the cached copy, as hearing our own deletion
// would: it is no longer listed or filed in the allocator state, and the
// journal records the deletion, so a recovered cache does not list it
// either.
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
	if d.CacheSize() != 1 {
		t.Fatal("the echo was not cached")
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
	if n := cs.JournalRecords(); n != 2 {
		t.Fatalf("journal holds %d records, want the echo's learn and its deletion", n)
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

// TestOwnedSessionDefendsAfterItsEchoExpires: an owned session whose echo
// expires from the cache is still ours to defend. A later session at its
// address meets a phase-1 re-announcement or a phase-2 move.
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
	if d.CacheSize() != 0 || d.Metrics().SessionsExpired != 1 {
		t.Fatal("the echo did not expire")
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
// our own origin (a previous incarnation's) makes the owned session the
// one the tracker holds; the heard copy's node is unlinked, and a session
// later heard at the new address meets the owner's reaction.
func TestCreateTakesOverAHeardKey(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	defer d.Close()
	f := newForge(t, bus)
	old := peerDesc("10.0.0.1", 9, d.cfg.Space, 3, 127)
	f.send(sap.Announce, old.Origin, old)
	checkIndices(t, d)

	desc := testDesc("again", 127)
	desc.ID = 9
	own, err := d.CreateSession(desc)
	if err != nil {
		t.Fatal(err)
	}
	checkIndices(t, d)

	idx, _ := d.cfg.Space.Index(own.Group)
	intruder := peerDesc("10.0.0.66", 1, d.cfg.Space, idx, 127)
	f.send(sap.Announce, intruder.Origin, intruder)
	if m := d.Metrics(); m.ClashDefensesOwn+m.ClashAddressChanges == 0 {
		t.Fatal("a session at our address met neither a re-announcement nor a move")
	}
	checkIndices(t, d)
}
