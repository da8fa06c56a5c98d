package sessiondir

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/announce"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// testCacheBase is the checkpoint's file name inside the tests' MemFS.
const testCacheBase = "sd.cache"

// checkpointOf persists d's cache the way sdrd does at exit —
// OpenCacheStore, Checkpoint, Close — onto a fresh in-memory filesystem
// and returns it.
func checkpointOf(t *testing.T, d *Directory) *storage.MemFS {
	t.Helper()
	fs := storage.NewMemFS()
	cs, _, err := OpenCacheStore(fs, testCacheBase, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// reopen recovers the checkpoint in fs into d the way a restarted sdrd
// does. The store is read-only until the caller's first Checkpoint, so
// several directories may reopen one fs.
func reopen(t *testing.T, fs storage.FS, d *Directory) (*CacheStore, storage.Recovery) {
	t.Helper()
	cs, rec, err := OpenCacheStore(fs, testCacheBase, d)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cs.Close() }) // a second Close is a no-op
	return cs, rec
}

// TestDirectoryCachePersistence: the §2.3 "local caching servers" story —
// a restarted directory loads its predecessor's cache, knows the sessions
// immediately, allocates around them, and expires them on schedule.
func TestDirectoryCachePersistence(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	a, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 21, nil)
	b, _ := newDirectory(t, bus, clk, "10.0.0.2", 64, 22, nil)

	desc, err := a.CreateSession(testDesc("durable", 127))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sessions()) != 1 {
		t.Fatal("B missed the announcement")
	}

	// B saves its cache and "restarts" half an hour later.
	fs := checkpointOf(t, b)
	b.Close()
	clk.Advance(30 * time.Minute)

	b2, _ := newDirectory(t, bus, clk, "10.0.0.2", 64, 23, nil)
	if len(b2.Sessions()) != 0 {
		t.Fatal("fresh directory should start empty")
	}
	cs, rec := reopen(t, fs, b2)
	if n := cs.Loaded(); n != 1 {
		t.Fatalf("loaded %d sessions", n)
	}
	if rec.SnapshotRecords != 1 || rec.JournalRecords != 0 || rec.Corrupt != 0 || rec.TornTails != 0 {
		t.Fatalf("clean checkpoint misread: %+v", rec)
	}
	got := b2.Sessions()
	if len(got) != 1 || got[0].Key() != desc.Key() || got[0].Group != desc.Group {
		t.Fatalf("restored sessions: %v", got)
	}

	// The restored knowledge shapes allocation immediately: B2's own
	// session must avoid the cached address.
	own, err := b2.CreateSession(testDesc("mine", 127))
	if err != nil {
		t.Fatal(err)
	}
	if own.Group == desc.Group {
		t.Fatal("allocation ignored the restored cache")
	}

	a.Close()
	// Expiry still applies to restored entries, on the original schedule:
	// the hour runs from when the session was last heard, not from the
	// restart.
	b2.Step(clk.Advance(29 * time.Minute))
	if !knowsKey(b2, desc.Key()) {
		t.Fatal("restored entry expired before its timeout")
	}
	b2.Step(clk.Advance(2 * time.Minute))
	if knowsKey(b2, desc.Key()) {
		t.Fatal("restored entry not expired an hour after it was last heard")
	}
}

// threeSessionCheckpoint returns a checkpoint of three heard sessions
// (keys 10.0.1.1/1 … 10.0.1.3/3, the snapshot's record order) and its
// snapshot bytes.
func threeSessionCheckpoint(t *testing.T, clk *fakeClock) (*storage.MemFS, []byte) {
	t.Helper()
	bus := transport.NewBus()
	donor, _ := newDirectory(t, bus, clk, "10.0.0.2", 64, 27, nil)
	defer donor.Close()
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(64)
	for i := 1; i <= 3; i++ {
		p := peerDesc(fmt.Sprintf("10.0.1.%d", i), uint64(i), space, mcast.Addr(i), 127)
		f.send(sap.Announce, p.Origin, p)
	}
	fs := checkpointOf(t, donor)
	snap, err := fs.ReadFile(testCacheBase)
	if err != nil {
		t.Fatal(err)
	}
	return fs, snap
}

// TestLoadCacheTruncatedFile: a snapshot cut off mid-record (a failing
// disk, or a copy interrupted by hand — the store's own writes are
// temp-sync-rename) is a torn tail, not an error: everything before the
// tear loads, nothing is quarantined, and the directory stays fully
// usable.
func TestLoadCacheTruncatedFile(t *testing.T) {
	clk := newFakeClock()
	fs, snap := threeSessionCheckpoint(t, clk)
	if err := fs.WriteFile(testCacheBase, snap[:len(snap)-10]); err != nil {
		t.Fatal(err)
	}

	c, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.3", 64, 28, nil)
	defer c.Close()
	cs, rec := reopen(t, fs, c)
	if rec.TornTails != 1 || rec.Corrupt != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("torn tail misclassified: %+v", rec)
	}
	// Entries before the tear are loaded; the torn one is not.
	if n := cs.Loaded(); n != 2 {
		t.Fatalf("loaded %d entries, want 2", n)
	}
	if !knowsKey(c, "10.0.1.1/1") || !knowsKey(c, "10.0.1.2/2") || knowsKey(c, "10.0.1.3/3") {
		t.Fatalf("sessions after the tear: %v", c.Sessions())
	}
	// The directory is not poisoned: it can still allocate and announce.
	if _, err := c.CreateSession(testDesc("after-the-tear", 127)); err != nil {
		t.Fatalf("directory unusable after torn cache load: %v", err)
	}
	if len(c.Sessions()) != 3 {
		t.Fatalf("sessions after recovery: %v", c.Sessions())
	}
}

// TestLoadCacheMidFileCorruption: a bit flipped under data that was once
// whole is corruption, not crash residue — the file is set aside as
// .corrupt-1 with its bytes intact, the records before the damage are
// salvaged, and both are counted.
func TestLoadCacheMidFileCorruption(t *testing.T) {
	clk := newFakeClock()
	fs, snap := threeSessionCheckpoint(t, clk)
	damaged := bytes.Clone(snap)
	at := bytes.Index(damaged, []byte("peer-10.0.1.2-2"))
	if at < 0 {
		t.Fatal("second record not found in the snapshot")
	}
	damaged[at] ^= 0x01
	if err := fs.WriteFile(testCacheBase, damaged); err != nil {
		t.Fatal(err)
	}

	c, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.3", 64, 28, nil)
	defer c.Close()
	cs, rec := reopen(t, fs, c)
	if rec.Corrupt != 1 || rec.TornTails != 0 || rec.Salvaged != 1 {
		t.Fatalf("mid-file damage misclassified: %+v", rec)
	}
	if len(rec.Quarantined) != 1 || rec.Quarantined[0] != testCacheBase+".corrupt-1" {
		t.Fatalf("quarantined as %v", rec.Quarantined)
	}
	if q, err := fs.ReadFile(testCacheBase + ".corrupt-1"); err != nil || !bytes.Equal(q, damaged) {
		t.Fatalf("quarantined copy differs from what the disk held (err %v)", err)
	}
	// Salvaged counts records from the damaged file once; Loaded counts
	// entries added to the cache, whichever file they came from.
	st := cs.Stats()
	if st.Corrupt != 1 || st.Salvaged != uint64(rec.Salvaged) {
		t.Fatalf("cache_recovery_* counters %+v, recovery %+v", st, rec)
	}
	if cs.Loaded() != 1 || !knowsKey(c, "10.0.1.1/1") || len(c.Sessions()) != 1 {
		t.Fatalf("loaded %d, sessions %v", cs.Loaded(), c.Sessions())
	}
}

// TestLoadCacheRejectsGarbage: a file at the cache path that is not a
// framed checkpoint at all — any other program's, or an older format's —
// is quarantined byte for byte, never deleted, and the directory starts
// cold and stays usable.
func TestLoadCacheRejectsGarbage(t *testing.T) {
	clk := newFakeClock()
	d, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 64, 25, nil)
	defer d.Close()
	foreign := []byte("not a cache")
	fs := storage.NewMemFS()
	if err := fs.WriteFile(testCacheBase, foreign); err != nil {
		t.Fatal(err)
	}
	cs, rec := reopen(t, fs, d)
	if rec.Corrupt != 1 || rec.Salvaged != 0 || cs.Loaded() != 0 || d.CacheSize() != 0 {
		t.Fatalf("garbage cache accepted: %+v, loaded %d", rec, cs.Loaded())
	}
	if q, err := fs.ReadFile(testCacheBase + ".corrupt-1"); err != nil || !bytes.Equal(q, foreign) {
		t.Fatalf("foreign file not preserved: %q, %v", q, err)
	}
	if _, err := fs.ReadFile(testCacheBase); err == nil {
		t.Fatal("foreign file left at the cache path")
	}
	if _, err := d.CreateSession(testDesc("cold-start", 127)); err != nil {
		t.Fatalf("directory unusable after quarantine: %v", err)
	}
	if err := cs.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after quarantine: %v", err)
	}
}

// TestCacheStoreJournalReplay drives one delta of each kind — learn,
// evict, expire, delete — into the journal after a checkpoint and
// recovers them into a second directory whose clock still reads the
// start time, so no learn record is skipped as stale and every removal
// has to come from its own record.
func TestCacheStoreJournalReplay(t *testing.T) {
	space := mcast.SyntheticSpace(64)
	newDir := func(bus *transport.Bus, clk *fakeClock) *Directory {
		d, err := New(Config{
			Origin:       netip.MustParseAddr("10.0.0.99"),
			Transport:    bus.Endpoint(),
			Space:        space,
			Clock:        clk.Now,
			Seed:         1,
			MaxSessions:  3,
			StaleAfter:   time.Minute,
			CacheTimeout: 10 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	bus := transport.NewBus()
	clk := newFakeClock()
	w := newDir(bus, clk)
	defer w.Close()
	fs := storage.NewMemFS()
	cs, _ := reopen(t, fs, w)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f := newForge(t, bus)
	sess := make([]string, 4)
	announce := func(i int) {
		p := peerDesc(fmt.Sprintf("10.0.1.%d", i+1), uint64(i+1), space, mcast.Addr(i), 127)
		sess[i] = p.Key()
		f.send(sap.Announce, p.Origin, p)
	}
	for i := 0; i < 3; i++ { // L, L, L
		announce(i)
		clk.Advance(time.Second)
	}
	clk.Advance(2 * time.Minute)
	announce(3) // full and all stale: V of the oldest (0), then L
	clk.Advance(7 * time.Minute)
	announce(1) // refreshes: not journaled
	announce(3)
	w.Step(clk.Advance(time.Minute + 3*time.Second)) // 2 unheard for > 10 min: E
	p1 := peerDesc("10.0.1.2", 2, space, 1, 127)
	f.send(sap.Delete, p1.Origin, p1) // D

	const records = 7 // L L L V L E D
	if n := cs.JournalRecords(); n != records {
		t.Fatalf("journal holds %d records, want %d", n, records)
	}
	if st := cs.Stats(); st.Appended != records || st.AppendErrors != 0 || st.Compactions != 1 || st.JournalRecords != records || st.Broken {
		t.Fatalf("stats after the deltas: %+v", st)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// Close detached the journal hook: later traffic is neither appended
	// nor counted as a refused append.
	p5 := peerDesc("10.0.1.5", 5, space, 5, 127)
	f.send(sap.Delete, netip.MustParseAddr("10.0.1.4"), peerDesc("10.0.1.4", 4, space, 3, 127))
	f.send(sap.Announce, p5.Origin, p5)
	if st := cs.Stats(); st.Appended != records || st.AppendErrors != 0 {
		t.Fatalf("closed store still journaling: %+v", st)
	}

	r := newDir(transport.NewBus(), newFakeClock())
	defer r.Close()
	rcs, rec := reopen(t, fs, r)
	if rec.SnapshotRecords != 0 || rec.JournalRecords != records || rec.Corrupt != 0 || rec.TornTails != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	if n := rcs.Loaded(); n != 4 {
		t.Fatalf("loaded %d entries, want the 4 learns", n)
	}
	// 0 evicted, 2 expired, 1 a tombstone (still occupying a slot), 3 live.
	if got := r.Sessions(); len(got) != 1 || got[0].Key() != sess[3] {
		t.Fatalf("replayed sessions: %v", got)
	}
	if n := r.CacheSize(); n != 2 {
		t.Fatalf("replayed cache holds %d entries, want the live one and the tombstone", n)
	}
}

// TestCacheStoreUndecodableRecord: a record whose checksum holds but
// whose payload this version cannot decode ends the replay of that file —
// the records before it are kept, the file is quarantined, and recovery
// still succeeds.
func TestCacheStoreUndecodableRecord(t *testing.T) {
	clk := newFakeClock()
	good := peerDesc("10.0.1.1", 1, mcast.SyntheticSpace(64), 1, 127)
	learn := refEncodeLearn(good, clk.Now(), clk.Now())
	for name, bad := range map[string][]byte{
		"empty":        {},
		"short learn":  {deltaLearn, 1, 2, 3},
		"learn sdp":    append(bytes.Clone(learn[:17]), "not sdp"...),
		"unknown kind": []byte("Xkey"),
	} {
		fs := storage.NewMemFS()
		st, _, err := storage.Open(fs, testCacheBase, storage.OpenOptions{Replay: func([]byte) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		err = st.Compact(func(add func([]byte) error) error {
			return errors.Join(add(learn), add(bad), add(learn))
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		d, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 64, 31, nil)
		cs, rec := reopen(t, fs, d)
		if rec.Corrupt != 1 || len(rec.Quarantined) != 1 || cs.Loaded() != 1 || !knowsKey(d, good.Key()) {
			t.Errorf("%s: recovery %+v, loaded %d", name, rec, cs.Loaded())
		}
		d.Close()
	}
}

// TestOpenCacheStoreAgain: a directory outlives its stores. A failed
// open can be retried and a closed store reopened, and the cache_*
// counters keep counting across them.
func TestOpenCacheStoreAgain(t *testing.T) {
	clk := newFakeClock()
	bus := transport.NewBus()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 30, nil)
	defer d.Close()
	fs := storage.NewMemFS()
	if _, _, err := OpenCacheStore(fs, "a/b", d); err == nil {
		t.Fatal("file name with a separator accepted")
	}
	first, _ := reopen(t, fs, d)
	if err := first.Checkpoint(); err != nil {
		t.Fatalf("open after a failed open: %v", err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	second, _ := reopen(t, fs, d)
	if err := second.Checkpoint(); err != nil {
		t.Fatalf("open after a close: %v", err)
	}
	if n := second.Stats().Compactions; n != 2 {
		t.Fatalf("compactions across both stores = %d, want 2", n)
	}
	// Closing the first store again must not detach the second's journal.
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	p := peerDesc("10.0.1.1", 1, mcast.SyntheticSpace(64), 1, 127)
	newForge(t, bus).send(sap.Announce, p.Origin, p)
	if n := second.JournalRecords(); n != 1 {
		t.Fatalf("second store journaled %d records, want 1", n)
	}
}

// TestCheckpointBytesIndependentOfShardCount: the snapshot is written in
// key order with tombstones left out, so the same population checkpoints to
// the same bytes however the cache holds it — here, the bytes the sharded
// directory wrote at shard counts 1, 4 and 8 (see shard_test.go for how the
// digest was recorded).
func TestCheckpointBytesIndependentOfShardCount(t *testing.T) {
	space := mcast.SyntheticSpace(64)
	bus := transport.NewBus()
	clk := newFakeClock()
	d, err := New(Config{
		Origin:    netip.MustParseAddr("10.0.0.1"),
		Transport: bus.Endpoint(),
		Space:     space,
		Clock:     clk.Now,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newForge(t, bus)
	for i := 0; i < 40; i++ {
		p := peerDesc(fmt.Sprintf("10.0.%d.%d", 1+i%3, 1+i%7), uint64(i+1), space, mcast.Addr(i), 127)
		f.send(sap.Announce, p.Origin, p)
		if i%5 == 0 {
			f.send(sap.Delete, p.Origin, p)
		}
		clk.Advance(time.Second)
	}
	fs := checkpointOf(t, d)
	d.Close()
	got, err := fs.ReadFile(testCacheBase)
	if err != nil {
		t.Fatal(err)
	}
	const golden = "5ff20a82337ab969333156533e1631be9c1a0d136369cd5646a7fee7c22c9c53"
	if sum := digest(string(got)); len(got) != 4216 || sum != golden {
		t.Fatalf("snapshot is %d bytes with digest %s; the sharded directory wrote 4216 with %s", len(got), sum, golden)
	}
	r, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.2", 64, 2, nil)
	defer r.Close()
	if _, rec := reopen(t, fs, r); rec.SnapshotRecords != 32 || r.CacheSize() != 32 {
		t.Fatalf("8 of 40 sessions were deleted: snapshot %+v, cache %d", rec, r.CacheSize())
	}
}

// refEncodeLearn is the learn record of d heard first and last at the
// given instants as the payload MarshalSDP writes: the record-identity
// oracle, written field by field.
func refEncodeLearn(d *session.Description, first, last time.Time) []byte {
	sdp, err := d.MarshalSDP()
	if err != nil {
		panic(err)
	}
	return append(refLearnHeader(first.Unix(), last), sdp...)
}

// refLearnHeader is the header of a learn record, written field by field.
func refLearnHeader(first int64, last time.Time) []byte {
	buf := []byte{deltaLearn}
	buf = binary.BigEndian.AppendUint64(buf, uint64(first))
	return binary.BigEndian.AppendUint64(buf, uint64(last.Unix()))
}

// TestLearnRecordsMatchReference: a learn record — journal and snapshot
// alike — is the entry's times and the payload as heard, byte for byte,
// in a buffer of exactly its length, and recovering it files an entry
// that knows that payload again — also when the payload spells the
// session with a line the parser ignores. Over seeded caches whose
// descriptions carry CR and LF, invalid UTF-8, IPv6 origins, and zero and
// set times. A snapshot is two allocations however many records it holds.
func TestLearnRecordsMatchReference(t *testing.T) {
	texts := []string{"plain", "line\r\nbreak", "bad\xffutf8\xc3", "é and U+FFFD �", "exactly eight", ""}
	origins := []string{"10.0.0.1", "192.168.200.9", "2001:db8::7", "::ffff:10.1.2.3"}
	for _, seed := range []uint64{1, 7, 1998} {
		rng := stats.NewRNG(seed)
		space := mcast.SyntheticSpace(1024)
		cache := announce.NewCache(time.Hour)
		now := time.Unix(904658400, 0)
		journal := core{journaling: true}
		recovered, _ := newDirectory(t, transport.NewBus(), newFakeClock(), "10.0.0.250", 64, seed, nil)
		heard := map[string][]byte{} // the payload each entry took last
		for i := 0; i < 200; i++ {
			d := peerDesc(origins[rng.IntN(len(origins))], rng.Uint64()>>rng.IntN(64), space, mcast.Addr(rng.IntN(1024)), mcast.TTL(rng.IntN(256)))
			d.Version = uint64(rng.IntN(1000))
			d.Name += texts[rng.IntN(len(texts))]
			d.Info = texts[rng.IntN(len(texts))]
			d.BandwidthKbps = rng.IntN(3) * 64
			d.Attributes = []string{texts[rng.IntN(len(texts))], "tool:sdr"}
			d.Media[0].Attributes = []string{texts[rng.IntN(len(texts))]}
			if rng.IntN(2) == 0 {
				d.Start, d.Stop = now, now.Add(time.Duration(rng.IntN(1e6))*time.Second)
			}
			now = now.Add(time.Duration(rng.IntN(5000)) * time.Millisecond)
			payload, err := d.MarshalSDP()
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 1 {
				payload = fmt.Appendf(payload, "x=spelled %d\r\n", i)
			}
			sum, err := session.ScanSDP(payload)
			if err != nil {
				t.Fatal(err)
			}
			key := sum.Key()
			if prev, known := cache.Peek(key); !known || sum.Version >= prev.Desc.Version {
				heard[key] = payload
			}
			e, _ := cache.ObserveHeard(key, sum, payload, 0, now)
			journal.journalLearn(e)
			got, want := journal.fx.journal[len(journal.fx.journal)-1], append(refLearnHeader(e.FirstHeard, e.LastHeard), heard[key]...)
			if !bytes.Equal(got, want) || len(got) != cap(got) {
				t.Fatalf("seed %d: learn record %d of %s (cap %d):\n%q\nreference\n%q", seed, i, e.Key(), cap(got), got, want)
			}
			recovered.cache.Remove(e.Key())
			if _, err := recovered.restore(got, now); err != nil {
				t.Fatalf("seed %d: learn record %d of %s: %v", seed, i, e.Key(), err)
			}
			if _, ok := recovered.cache.Unchanged([]byte(e.Key()), sap.PayloadDigest(recovered.digestSeed, heard[key])); !ok {
				t.Fatalf("seed %d: learn record %d of %s recovered into an entry that does not know the payload heard", seed, i, e.Key())
			}
		}
		recovered.Close()
		live := cache.Live()
		var want [][]byte
		slices.SortFunc(live, func(a, b *announce.Entry) int { return strings.Compare(a.Desc.Key(), b.Desc.Key()) })
		for _, e := range live {
			want = append(want, append(refLearnHeader(e.FirstHeard, e.LastHeard), heard[e.Key()]...))
		}
		slices.Reverse(live)
		if got := snapshotRecords(live); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("seed %d: %d snapshot records differ from the reference's %d", seed, len(got), len(want))
		}
		if n := testing.AllocsPerRun(10, func() { snapshotRecords(live) }); n != 2 {
			t.Errorf("seed %d: a snapshot of %d records: %v allocs, want 2", seed, len(live), n)
		}
	}
}

// TestJournalRecoveryKnowsSpellingHeard: a peer that spells its session
// with a line the parser ignores is known unchanged after a crash that
// leaves only the journal. The learn record holds the payload as heard, so
// the recovered entry has that payload's digest, and the peer's next
// unchanged re-announcement is refreshed without a parse.
func TestJournalRecoveryKnowsSpellingHeard(t *testing.T) {
	clk := newFakeClock()
	bus := transport.NewBus()
	d, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 41, nil)
	defer d.Close()
	fs := storage.NewMemFS()
	cs, _ := reopen(t, fs, d)
	if err := cs.Checkpoint(); err != nil { // an empty snapshot: the journal takes what follows
		t.Fatal(err)
	}
	peer := peerDesc("10.0.1.7", 7, mcast.SyntheticSpace(64), 7, 127)
	payload, err := peer.MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	payload = append(payload, "x=spelled this way\r\n"...)
	pkt := sap.Packet{Type: sap.Announce, MsgIDHash: sap.MsgIDHashOf(payload), Origin: peer.Origin, Payload: payload}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Endpoint().SendBatch(context.Background(), oneDgram(wire, peer.TTL)); err != nil {
		t.Fatal(err)
	}
	if !knowsKey(d, peer.Key()) || cs.JournalRecords() != 1 {
		t.Fatalf("the announcement was not learned and journaled: known %v, %d journal records", knowsKey(d, peer.Key()), cs.JournalRecords())
	}
	fs.Crash(storage.CrashLoseUnsynced, 1)

	rbus := transport.NewBus()
	r, _ := newDirectory(t, rbus, clk, "10.0.0.2", 64, 41, nil)
	defer r.Close()
	if _, rec := reopen(t, fs, r); rec.SnapshotRecords != 0 || rec.JournalRecords != 1 || !knowsKey(r, peer.Key()) {
		t.Fatalf("recovery %+v did not restore the session from the journal alone", rec)
	}
	if err := rbus.Endpoint().SendBatch(context.Background(), oneDgram(wire, peer.TTL)); err != nil {
		t.Fatal(err)
	}
	for _, mv := range r.Registry().Snapshot() {
		if mv.Name == "dir_refresh_fast_total" && mv.Value != 1 {
			t.Fatalf("dir_refresh_fast_total %v after the peer's unchanged re-announcement, want 1: the recovered entry does not know the payload heard", mv.Value)
		}
	}
	if m := r.Metrics(); m.PacketsReceived != 1 || m.SessionsLearned != 0 {
		t.Fatalf("after the re-announcement: %d received, %d learned; want 1 and 0", m.PacketsReceived, m.SessionsLearned)
	}
}

// TestCheckpointerBacksOffAndDegrades pins sdrd's checkpoint cadence: an
// idle journal skips the rewrite, failures double the wait up to 8× the
// interval, the third failure in a row degrades the store, and the first
// success restores the interval and heals it.
func TestCheckpointerBacksOffAndDegrades(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	a, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 31, nil)
	b, _ := newDirectory(t, bus, clk, "10.0.0.2", 64, 32, nil)
	fs := storage.NewFaultFS(storage.NewMemFS(), 5, storage.FaultProfile{})
	cs, _, err := OpenCacheStore(fs, testCacheBase, a)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cs.Close() }()
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpointer(cs, time.Second)
	tick := func(wantNext time.Duration, wantErr bool, wantFails int, wantDegraded bool) {
		t.Helper()
		next, err := ck.Tick()
		if next != wantNext || (err != nil) != wantErr || ck.Failures() != wantFails || ck.Degraded() != wantDegraded {
			t.Fatalf("Tick: next %v err %v failures %d degraded %v; want %v, error %v, %d, %v",
				next, err, ck.Failures(), ck.Degraded(), wantNext, wantErr, wantFails, wantDegraded)
		}
	}
	compactions := cs.Stats().Compactions
	tick(time.Second, false, 0, false)
	if got := cs.Stats().Compactions; got != compactions {
		t.Fatalf("an idle journal was rewritten: %d compactions, want %d", got, compactions)
	}

	fs.SetProfile(storage.FaultProfile{WriteErr: 1})
	if _, err := b.CreateSession(testDesc("journaled", 127)); err != nil {
		t.Fatal(err)
	}
	tick(2*time.Second, true, 1, false)
	tick(4*time.Second, true, 2, false)
	tick(8*time.Second, true, 3, true)
	tick(8*time.Second, true, 4, true)

	fs.SetProfile(storage.FaultProfile{})
	tick(time.Second, false, 0, false)
}
