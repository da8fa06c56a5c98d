package sessiondir

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
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
		Origin:       netip.MustParseAddr("10.0.0.1"),
		Transport:    l,
		Space:        mcast.SyntheticSpace(spaceSize),
		Allocator:    allocator.NewAdaptive(spaceSize, allocator.AdaptiveConfig{GapFraction: 0.2}),
		Clock:        clk.Now,
		Seed:         3,
		RecentWindow: 30 * time.Second,
		Delay:        clash.NewUniformDelay(1000, 1001),
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
		after := ownedByKey(d)
		for i, s := range l.sent[checked:] {
			var p sap.Packet
			if err := p.Decode(s.data); err != nil {
				t.Fatalf("%s: datagram %d does not decode: %v", op, checked+i, err)
			}
			if want := sap.MsgIDHashOf(p.Payload); p.MsgIDHash != want {
				t.Fatalf("%s: datagram %d carries message id hash %#04x, its payload hashes to %#04x", op, checked+i, p.MsgIDHash, want)
			}
			got, err := session.ParseSDP(p.Payload)
			if err != nil {
				t.Fatalf("%s: datagram %d's payload does not parse: %v", op, checked+i, err)
			}
			owned := after
			if p.Type == sap.Delete {
				owned = before
			}
			want := owned[got.Key()]
			if want == nil {
				t.Fatalf("%s: datagram %d (%v) is about %s, not an owned session", op, checked+i, p.Type, got.Key())
			}
			wantPayload, err := want.MarshalSDP()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(p.Payload, wantPayload) || s.scope != want.TTL || p.Origin != want.Origin {
				t.Fatalf("%s: datagram %d (%v, scope %d, origin %s)\n%q\nis not the owned session (scope %d)\n%q",
					op, checked+i, p.Type, s.scope, p.Origin, p.Payload, want.TTL, wantPayload)
			}
		}
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
