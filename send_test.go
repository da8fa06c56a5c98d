package sessiondir

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// lender is a transport that records a copy of every datagram it is lent
// and overwrites the lent bytes as soon as the send call returns, as a
// transport that reused them at once could: a directory that read them
// again after lending them out, or sent them twice, would send garbage.
type lender struct{ sent []lent }

type lent struct {
	data  []byte
	scope mcast.TTL
}

func (l *lender) SendBatch(_ context.Context, batch []transport.Datagram) error {
	for _, d := range batch {
		l.sent = append(l.sent, lent{bytes.Clone(d.Data), d.Scope})
	}
	for _, d := range batch {
		transport.Poison(d.Data)
	}
	return nil
}
func (l *lender) Subscribe(transport.Handler) {}
func (l *lender) Close() error                { return nil }

// ownedByKey maps the directory's owned sessions by key.
func ownedByKey(d *Directory) map[string]*session.Description {
	out := map[string]*session.Description{}
	for _, s := range d.OwnSessions() {
		out[s.Key()] = s
	}
	return out
}

// checkSent checks the datagrams an op sent, the first of them the
// first-th of the run: each decodes, its header's message id hash is the
// hash of its payload, and the payload is the owned description it
// carries as that description stood when it was sent — after the op
// (after) for an announcement, before it (before) for a deletion.
func checkSent(t *testing.T, op string, first int, sent []lent, before, after map[string]*session.Description) {
	t.Helper()
	for i, s := range sent {
		var p sap.Packet
		if err := p.Decode(s.data); err != nil {
			t.Fatalf("%s: datagram %d does not decode: %v", op, first+i, err)
		}
		if want := sap.MsgIDHashOf(p.Payload); p.MsgIDHash != want {
			t.Fatalf("%s: datagram %d carries message id hash %#04x, its payload hashes to %#04x", op, first+i, p.MsgIDHash, want)
		}
		got, err := session.ParseSDP(p.Payload)
		if err != nil {
			t.Fatalf("%s: datagram %d's payload does not parse: %v", op, first+i, err)
		}
		owned := after
		if p.Type == sap.Delete {
			owned = before
		}
		want := owned[got.Key()]
		if want == nil {
			t.Fatalf("%s: datagram %d (%v) is about %s, not an owned session", op, first+i, p.Type, got.Key())
		}
		wantPayload, err := want.MarshalSDP()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Payload, wantPayload) || s.scope != want.TTL || p.Origin != want.Origin {
			t.Fatalf("%s: datagram %d (%v, scope %d, origin %s)\n%q\nis not the owned session (scope %d)\n%q",
				op, first+i, p.Type, s.scope, p.Origin, p.Payload, want.TTL, wantPayload)
		}
	}
}

// runSendContract drives a directory through creates, a batch create,
// timer re-announcements, a forged clash it moves away from, one it
// defends against, and withdrawals, and checks every datagram its
// transport was lent: the datagram decodes, its header's message id hash
// is the hash of its payload, and the payload is the owned description
// it carries as that description stood when it was sent — after the call
// for an announcement, before it for a deletion. It returns the datagrams.
func runSendContract(t *testing.T, l *lender) []lent {
	t.Helper()
	const spaceSize = 64
	clk := newFakeClock()
	d, err := New(Config{
		Origin:    netip.MustParseAddr("10.0.0.1"),
		Transport: l,
		Space:     mcast.SyntheticSpace(spaceSize),
		Allocator: allocator.NewAdaptive(spaceSize, allocator.AdaptiveConfig{GapFraction: 0.2}),
		Clock:     clk.Now,
		Seed:      3,
		Delay:     clash.NewUniformDelay(1000, 1001),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	checked := 0
	do := func(op string, fn func()) {
		t.Helper()
		before := ownedByKey(d)
		fn()
		checkSent(t, op, checked, l.sent[checked:], before, ownedByKey(d))
		checked = len(l.sent)
	}
	forge := func(victim *session.Description, id uint64) {
		intruder := &session.Description{
			ID: id, Version: 1, Origin: netip.MustParseAddr("10.0.9.9"), Name: "intruder",
			Group: victim.Group, TTL: victim.TTL,
			Media: []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
		}
		d.HandleBatch([]transport.Message{{Data: announceWire(t, intruder)}})
	}

	var keys []string
	for i, ttl := range []mcast.TTL{1, 15, 63, 127, 127, 191} {
		do("create", func() {
			own, err := d.CreateSession(testDesc("own", ttl))
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			keys = append(keys, own.Key())
		})
	}
	do("batch create", func() {
		out, err := d.CreateSessionBatch([]*session.Description{testDesc("b0", 63), testDesc("b1", 63), testDesc("b2", 63), testDesc("b3", 15)})
		if err != nil {
			t.Fatal(err)
		}
		for _, own := range out {
			keys = append(keys, own.Key())
		}
	})
	do("forged clash on a fresh session", func() { forge(ownedByKey(d)[keys[0]], 50) })
	if m := d.Metrics(); m.ClashAddressChanges != 1 {
		t.Fatalf("a fresh session clashed with: %d moves, want 1", m.ClashAddressChanges)
	}
	for i := 0; i < 40; i++ {
		clk.Advance(time.Second)
		do("step", func() { d.Step(clk.Now()) })
	}
	do("forged clash on a standing session", func() { forge(ownedByKey(d)[keys[1]], 51) })
	if m := d.Metrics(); m.ClashDefensesOwn != 1 {
		t.Fatalf("a standing session clashed with: %d defences, want 1", m.ClashDefensesOwn)
	}
	for _, key := range []string{keys[0], keys[2], keys[7]} {
		do("withdraw", func() {
			if err := d.WithdrawSession(key); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i := 0; i < 90; i++ {
		clk.Advance(time.Second)
		do("step", func() { d.Step(clk.Now()) })
	}
	m := d.Metrics()
	if m.DeletionsSent != 3 || m.AnnouncementsSent < 3*uint64(len(keys)) || uint64(len(l.sent)) != m.AnnouncementsSent+m.DeletionsSent {
		t.Fatalf("%d datagrams for %d announcements and %d deletions of %d sessions: the script no longer re-announces",
			len(l.sent), m.AnnouncementsSent, m.DeletionsSent, len(keys))
	}
	return l.sent
}

// sendContractStream is the SHA-256 of the stream runSendContract's
// directory sends — each datagram as "scope:length:" then its bytes —
// recorded when a transport could still take datagrams one at a time as
// well as in batches, and both took this stream.
const sendContractStream = "29da0e5c61493bcfd284683a9b057151c8cac0f949bf5fd783f9f194cc16fa0a"

// TestSendContract: every datagram a directory sends is built afresh into
// the flush's arena and lent to the transport for the call only — what a
// transport does to the bytes after it returns reaches no later datagram —
// and the stream is the one recorded.
func TestSendContract(t *testing.T) {
	sent := runSendContract(t, &lender{})
	h := sha256.New()
	for _, s := range sent {
		fmt.Fprintf(h, "%d:%d:", s.scope, len(s.data))
		h.Write(s.data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != sendContractStream {
		t.Fatalf("the %d datagrams sent hash to %s, want %s", len(sent), got, sendContractStream)
	}
}

// TestNothingDueStepAllocatesNothing pins the tick a directory runs once a
// second at no allocation when nothing is due — no owned session to
// re-announce, no defence, no cached session expiring — at 1k and 10k
// cached sessions: the cache's expiry bound answers without a scan.
func TestNothingDueStepAllocatesNothing(t *testing.T) {
	for _, n := range []int{1000, 10000} {
		clk := newFakeClock()
		tx := &sentLog{}
		d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: tx, Clock: clk.Now, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			admitUnknown(d, heardDesc(i))
		}
		if _, err := d.CreateSession(testDesc("own", 127)); err != nil {
			t.Fatal(err)
		}
		now := clk.Now()
		allocs := testing.AllocsPerRun(100, func() {
			now = now.Add(10 * time.Millisecond)
			d.Step(now)
		})
		if m := d.Metrics(); m.SessionsExpired != 0 || len(tx.sent) != 1 {
			t.Fatalf("n=%d: %d expired, %d datagrams sent: something was due", n, m.SessionsExpired, len(tx.sent))
		}
		if allocs != 0 {
			t.Errorf("n=%d: a Step with nothing due allocates %v times", n, allocs)
		}
		d.Close()
	}
}

// answerer is a lender whose recipient answers at once, as a transport.Bus
// peer may: inside a send call, before it copies the batch, it hands the
// directory the datagram forge returns, if any, and the directory's answer
// goes out from a flush nested inside this one. A directory that refilled
// a chunk still lent to the outer call would overwrite the batch the outer
// call then copies.
type answerer struct {
	lender
	d      *Directory
	forge  func() []byte
	inside bool
	nested int // datagrams sent by nested flushes
}

func (a *answerer) SendBatch(ctx context.Context, batch []transport.Datagram) error {
	if a.inside {
		a.nested += len(batch)
	} else if wire := a.forge(); wire != nil {
		a.inside = true
		a.d.HandleBatch([]transport.Message{{Data: wire}})
		a.inside = false
	}
	return a.lender.SendBatch(ctx, batch)
}

// TestSendContractAcrossChunks is TestSendContract's check over bursts
// that fill several arena chunks per flush, over consecutive flushes that
// refill the chunks the one before lent out: a batch create of 100
// sessions, Steps an hour apart that re-announce every owned session (at
// least three chunks each), withdrawals between them, and batches of 20
// that take the burst past the chunks a flush keeps. In "nested" the
// transport's recipient answers each Step's and withdrawal's batch with a
// forged clash against a standing session, which the directory defends
// from a flush nested inside the send call.
func TestSendContractAcrossChunks(t *testing.T) {
	for _, nested := range []bool{false, true} {
		name := "lent"
		if nested {
			name = "nested"
		}
		t.Run(name, func(t *testing.T) { runChunkedSendContract(t, nested) })
	}
}

func runChunkedSendContract(t *testing.T, nested bool) {
	clk := newFakeClock()
	a := &answerer{forge: func() []byte { return nil }}
	var tx transport.Transport = &a.lender
	if nested {
		tx = a
	}
	d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: tx, Clock: clk.Now, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a.d = d

	checked := 0
	do := func(op string, fn func()) []lent {
		t.Helper()
		before := ownedByKey(d)
		fn()
		sent := a.sent[checked:]
		checkSent(t, op, checked, sent, before, ownedByKey(d))
		checked = len(a.sent)
		return sent
	}
	burst := func(n int) []*session.Description {
		descs := make([]*session.Description, n)
		for i := range descs {
			// Names of every length from 1 to 40 bytes, so datagrams
			// straddle chunk ends at different offsets.
			descs[i] = testDesc(strings.Repeat("n", 1+i%40), []mcast.TTL{15, 63, 127, 191}[i%4])
		}
		return descs
	}
	var first []string
	do("batch create", func() {
		out, err := d.CreateSessionBatch(burst(100))
		if err != nil {
			t.Fatal(err)
		}
		for _, own := range out {
			first = append(first, own.Key())
		}
	})
	// Each forged clash names a session of the first batch, once it is
	// standing, so the directory defends it rather than moving it, and
	// never the same one twice: two intruders at one address would clash
	// with each other, and the directory would defend a session not its
	// own.
	created, victim := clk.Now(), 0
	a.forge = func() []byte {
		if clk.Now().Sub(created) <= recentWindow {
			return nil
		}
		owned := ownedByKey(d)
		for ; victim < len(first); victim++ {
			if own := owned[first[victim]]; own != nil {
				victim++
				return announceWire(t, &session.Description{
					ID: uint64(victim), Version: 1, Origin: netip.AddrFrom4([4]byte{10, 0, 9, byte(victim)}), Name: "intruder",
					Group: own.Group, TTL: own.TTL,
					Media: []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
				})
			}
		}
		return nil
	}
	withdrawn := 0
	for round := 0; round < 12; round++ {
		clk.Advance(time.Hour)
		owned := len(ownedByKey(d))
		sent := do("step", func() { d.Step(clk.Now()) })
		size := 0
		for _, s := range sent {
			size += len(s.data)
		}
		if len(sent) < owned || size <= 2*wireChunk {
			t.Fatalf("round %d: a Step sent %d datagrams, %d bytes, for %d owned sessions: not a re-announcement of each, over three chunks", round, len(sent), size, owned)
		}
		switch round % 4 {
		case 1:
			for _, key := range first[withdrawn : withdrawn+3] {
				do("withdraw", func() {
					if err := d.WithdrawSession(key); err != nil {
						t.Fatal(err)
					}
				})
			}
			withdrawn += 3
		case 2:
			do("batch create", func() {
				if _, err := d.CreateSessionBatch(burst(20)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	if nested && a.nested < 12 {
		t.Fatalf("%d datagrams sent from nested flushes: the forged clashes were not answered", a.nested)
	}
}

// discard is a transport that counts what it is lent and keeps nothing.
type discard struct{ dgrams, bytes int }

func (x *discard) SendBatch(_ context.Context, batch []transport.Datagram) error {
	for _, d := range batch {
		x.dgrams++
		x.bytes += len(d.Data)
	}
	return nil
}
func (x *discard) Subscribe(transport.Handler) {}
func (x *discard) Close() error                { return nil }

// TestStepReannounceAllocatesNothing pins an announcer's steady state at no
// allocation: a Step that re-announces 100 owned sessions, three arena
// chunks' worth, writes them into the chunks the last Step that sent
// anything sent from — a Step with nothing due between them keeps them —
// measuring and hashing nothing it measured before, and a withdrawal
// sends its deletion from them too.
func TestStepReannounceAllocatesNothing(t *testing.T) {
	const owned = 100
	clk := newFakeClock()
	tx := &discard{}
	d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: tx, Clock: clk.Now, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	descs := make([]*session.Description, owned)
	for i := range descs {
		descs[i] = testDesc(fmt.Sprintf("own %d", i), 127)
	}
	created, err := d.CreateSessionBatch(descs)
	if err != nil {
		t.Fatal(err)
	}
	now := clk.Now()
	step := func() {
		now = now.Add(time.Second) // nothing is due
		d.Step(now)
		now = now.Add(time.Hour) // every owned session is due
		d.Step(now)
	}
	step() // the due list and the arena grow to the burst
	tx.dgrams, tx.bytes = 0, 0
	const runs = 20
	allocs := testing.AllocsPerRun(runs, step)
	if steps := runs + 1; tx.dgrams != steps*owned || tx.bytes <= steps*2*wireChunk {
		t.Fatalf("%d Steps sent %d datagrams, %d bytes: not %d re-announcements each, over three chunks", steps, tx.dgrams, tx.bytes, owned)
	}
	if allocs != 0 {
		t.Errorf("a Step re-announcing %d sessions allocates %v times", owned, allocs)
	}

	keys := make([]string, len(created))
	for i, own := range created {
		keys[i] = own.Key()
	}
	next := 0
	allocs = testing.AllocsPerRun(owned/2-1, func() {
		if err := d.WithdrawSession(keys[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if m := d.Metrics(); m.DeletionsSent != owned/2 {
		t.Fatalf("%d deletions sent, want %d", m.DeletionsSent, owned/2)
	}
	if allocs != 0 {
		t.Errorf("a WithdrawSession allocates %v times", allocs)
	}
}

// TestBurstLeavesABoundedArena: a burst past what a flush keeps — a batch
// create of 1000 sessions, then a Step that re-announces them all — leaves
// the directory at most keepChunks arena chunks of wireChunk bytes and
// keepDgrams datagram slots; the rest goes to the collector.
func TestBurstLeavesABoundedArena(t *testing.T) {
	clk := newFakeClock()
	tx := &discard{}
	d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: tx, Clock: clk.Now, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	descs := make([]*session.Description, 1000)
	for i := range descs {
		descs[i] = testDesc(fmt.Sprintf("own %d", i), 127)
	}
	kept := func(what string) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		chunks := 0
		for _, c := range d.fx.chunks {
			if c != nil {
				chunks++
				if cap(c) != wireChunk {
					t.Errorf("%s: a kept chunk of %d bytes, want %d", what, cap(c), wireChunk)
				}
			}
		}
		if chunks > keepChunks || d.fx.wire != nil || cap(d.fx.dgrams) > keepDgrams {
			t.Errorf("%s: %d chunks kept, wire of %d bytes, %d datagram slots; want at most %d chunks, no wire, %d slots",
				what, chunks, cap(d.fx.wire), cap(d.fx.dgrams), keepChunks, keepDgrams)
		}
	}
	if _, err := d.CreateSessionBatch(descs); err != nil {
		t.Fatal(err)
	}
	kept("after a batch create of 1000")
	d.Step(clk.Advance(time.Hour))
	if tx.dgrams != 2000 || tx.bytes <= 2000*100 {
		t.Fatalf("%d datagrams, %d bytes sent: not 1000 announcements and 1000 re-announcements", tx.dgrams, tx.bytes)
	}
	kept("after a Step re-announcing 1000")
}

// TestDescriptionLongerThanAChunk: a payload longer than an arena chunk
// goes out whole — an owned session's, created and re-announced, and a
// heard one's, defended as a third party — each datagram carrying its own
// payload's hash, and the directory keeps no chunk and no encoding
// scratch larger than wireChunk afterwards.
func TestDescriptionLongerThanAChunk(t *testing.T) {
	clk := newFakeClock()
	space := mcast.SyntheticSpace(16)
	l := &lender{}
	d, err := New(Config{
		Origin: netip.MustParseAddr("10.0.0.1"), Transport: l, Space: space, Clock: clk.Now, Seed: 3,
		Delay: clash.NewUniformDelay(1000, 1001),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	long := strings.Repeat("a long description ", wireChunk/16)
	mine := testDesc("long", 127)
	mine.Info = long
	own, err := d.CreateSession(mine)
	if err != nil {
		t.Fatal(err)
	}
	d.Step(clk.Advance(time.Hour)) // the owned session is due again
	ownIdx, _ := space.Index(own.Group)
	other := (ownIdx + 1) % mcast.Addr(space.Size)
	p := peerDesc("10.0.1.1", 1, space, other, 127)
	p.Info = long
	q := peerDesc("10.0.1.2", 2, space, other, 127)
	d.HandleBatch([]transport.Message{{Data: announceWire(t, p)}})
	clk.Advance(time.Second)
	d.HandleBatch([]transport.Message{{Data: announceWire(t, q)}})
	d.Step(clk.Advance(2 * time.Second)) // the suppression delay passes: p is defended
	if m := d.Metrics(); m.AnnouncementsSent != 2 || m.ClashDefensesThird != 1 || len(l.sent) != 3 {
		t.Fatalf("%d datagrams for %d announcements and %d third-party defences, want 3 for 2 and 1",
			len(l.sent), m.AnnouncementsSent, m.ClashDefensesThird)
	}
	for i, s := range l.sent {
		var pkt sap.Packet
		if err := pkt.Decode(s.data); err != nil {
			t.Fatalf("datagram %d does not decode: %v", i, err)
		}
		if want := sap.MsgIDHashOf(pkt.Payload); pkt.MsgIDHash != want {
			t.Fatalf("datagram %d carries message id hash %#04x, its payload hashes to %#04x", i, pkt.MsgIDHash, want)
		}
		want := own
		if i == 2 {
			want = p
		}
		wantPayload, err := want.MarshalSDP()
		if err != nil {
			t.Fatal(err)
		}
		if len(wantPayload) <= wireChunk || !bytes.Equal(pkt.Payload, wantPayload) {
			t.Fatalf("datagram %d carries %d bytes, not %s's %d", i, len(pkt.Payload), want.Key(), len(wantPayload))
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.fx.chunks {
		if cap(c) > wireChunk {
			t.Errorf("a kept chunk of %d bytes, want at most %d", cap(c), wireChunk)
		}
	}
	if cap(d.fx.wire) > wireChunk || cap(d.sdp) > wireChunk {
		t.Errorf("a wire of %d bytes and a scratch of %d kept, want each at most %d", cap(d.fx.wire), cap(d.sdp), wireChunk)
	}
}

// TestJournaledLearnKeepsTheArena: a flush that carries journal records
// only leaves the core its datagram and event buffers. A directory with a
// CacheStore attached owns 100 sessions and also listens: a learn, which
// journals a record and sends nothing, followed by a Step that
// re-announces every owned session allocates no more than the learn
// alone, so the Step re-announces from the buffers the last one sent from.
func TestJournaledLearnKeepsTheArena(t *testing.T) {
	const owned, runs = 100, 50
	clk := newFakeClock()
	space := mcast.SAPDynamicSpace()
	d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: &discard{}, Clock: clk.Now, Seed: 1,
		CacheTimeout: 1000 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cs, _ := reopen(t, storage.NewMemFS(), d)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	descs := make([]*session.Description, owned)
	for i := range descs {
		descs[i] = testDesc(fmt.Sprintf("own %d", i), 127)
	}
	if _, err := d.CreateSessionBatch(descs); err != nil {
		t.Fatal(err)
	}
	wires := make([][]transport.Message, 3*runs+2)
	for i := range wires {
		p := peerDesc(fmt.Sprintf("10.1.%d.%d", i>>8, i&255), uint64(i+1), space, mcast.Addr(i), 127)
		wires[i] = []transport.Message{{Data: announceWire(t, p)}}
	}
	next := 0
	learn := func() {
		d.HandleBatch(wires[next])
		next++
	}
	now := clk.Now()
	step := func() {
		now = now.Add(time.Hour) // every owned session is due
		d.Step(now)
	}
	learn()
	step() // the due list and the arena grow to the burst
	learnAlone := testing.AllocsPerRun(runs, learn)
	pair := testing.AllocsPerRun(runs, func() { learn(); step() })
	if m := d.Metrics(); m.SessionsLearned != uint64(next) || cs.JournalRecords() != next {
		t.Fatalf("%d sessions learned, %d journaled, want %d each", m.SessionsLearned, cs.JournalRecords(), next)
	}
	if pair > learnAlone {
		t.Errorf("a learn allocates %v times, a learn and a Step re-announcing %d sessions %v", learnAlone, owned, pair)
	}
}

// TestJournalBurstLeavesBoundedBuffers: a batch of learns that journals
// more than keepJournal bytes at once leaves the directory at most two
// journal buffers of keepJournal bytes — the core's and the spare; the
// burst's buffer goes to the collector once written.
func TestJournalBurstLeavesBoundedBuffers(t *testing.T) {
	clk := newFakeClock()
	space := mcast.SAPDynamicSpace()
	d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: &discard{}, Clock: clk.Now, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cs, _ := reopen(t, storage.NewMemFS(), d)
	if err := cs.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var burst []transport.Message
	for i := 0; i < 100; i++ {
		p := peerDesc(fmt.Sprintf("10.1.0.%d", i), uint64(i+1), space, mcast.Addr(i), 127)
		burst = append(burst, transport.Message{Data: announceWire(t, p)})
	}
	d.HandleBatch(burst[:1]) // a batch of one record, kept as the spare
	d.HandleBatch(burst[1:])
	if n := cs.JournalRecords(); n != len(burst) {
		t.Fatalf("%d records journaled, want %d", n, len(burst))
	}
	d.drainMu.Lock()
	d.mu.Lock()
	kept, spare := cap(d.fx.journal), cap(d.spareJournal)
	d.mu.Unlock()
	d.drainMu.Unlock()
	if kept > keepJournal || spare > keepJournal || kept+spare == 0 {
		t.Errorf("after a burst the directory keeps journal buffers of %d and %d bytes, want each at most %d, and one kept", kept, spare, keepJournal)
	}
}
