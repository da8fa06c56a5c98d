package sessiondir_test

// End-to-end tests of the public API over real UDP sockets (unicast
// fan-out on loopback, so no multicast routing is needed) — the same path
// cmd/sdrd uses in -peers mode.

import (
	"context"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"sessiondir"
	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// udpMesh builds two UDP endpoints that address each other, using the
// two-phase trick: bind both first, then wire peers via re-dial.
func udpMesh(t *testing.T) (ta, tb transport.Transport) {
	t.Helper()
	// Reserve both sockets first with placeholder peers, then rebuild each
	// pointing at the other's *final* address. The second generation reuses
	// the first generation's port by closing it and binding explicitly.
	gen1a, err := transport.NewUDP(transport.UDPConfig{
		Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen1b, err := transport.NewUDP(transport.UDPConfig{
		Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:1")},
	})
	if err != nil {
		gen1a.Close()
		t.Fatal(err)
	}
	addrA, addrB := gen1a.LocalAddr(), gen1b.LocalAddr()
	gen1a.Close()
	gen1b.Close()
	a, err := transport.NewUDP(transport.UDPConfig{
		Peers:      []netip.AddrPort{addrB},
		ListenAddr: addrA.String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := transport.NewUDP(transport.UDPConfig{
		Peers:      []netip.AddrPort{addrA},
		ListenAddr: addrB.String(),
	})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b
}

func TestDirectoryOverRealUDP(t *testing.T) {
	ta, tb := udpMesh(t)

	var learned atomic.Int64
	a, err := sessiondir.New(sessiondir.Config{
		Origin:    netip.MustParseAddr("127.0.0.1"),
		Transport: ta,
		Space:     mcast.SyntheticSpace(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := sessiondir.New(sessiondir.Config{
		Origin:    netip.MustParseAddr("127.0.0.2"),
		Transport: tb,
		Space:     mcast.SyntheticSpace(64),
		OnEvent: func(e sessiondir.Event) {
			if e.Kind == sessiondir.EventSessionLearned {
				learned.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	desc, err := a.CreateSession(&session.Description{
		Name:  "udp e2e",
		TTL:   63,
		Media: []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(scaled(3 * time.Second))
	for learned.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if learned.Load() == 0 {
		t.Fatal("B never learned the session over UDP")
	}
	found := false
	for _, s := range b.Sessions() {
		if s.Key() == desc.Key() && s.Group == desc.Group {
			found = true
		}
	}
	if !found {
		t.Fatalf("B's listing lacks the session: %v", b.Sessions())
	}

	m := a.Metrics()
	if m.AnnouncementsSent == 0 {
		t.Fatalf("A metrics: %+v", m)
	}
	mb := b.Metrics()
	if mb.PacketsReceived == 0 || mb.SessionsLearned == 0 {
		t.Fatalf("B metrics: %+v", mb)
	}
}

func TestDirectoryRunLoop(t *testing.T) {
	ta, tb := udpMesh(t)
	a, err := sessiondir.New(sessiondir.Config{
		Origin:    netip.MustParseAddr("127.0.0.1"),
		Transport: ta,
		Space:     mcast.SyntheticSpace(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_ = tb

	ctx, cancel := context.WithTimeout(context.Background(), scaled(300*time.Millisecond))
	defer cancel()
	err = a.Run(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Run returned %v", err)
	}
}

func TestDirectoryMetricsMalformed(t *testing.T) {
	ta, tb := udpMesh(t)
	b, err := sessiondir.New(sessiondir.Config{
		Origin:    netip.MustParseAddr("127.0.0.2"),
		Transport: tb,
		Space:     mcast.SyntheticSpace(64),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Fire garbage at B: a runt (under the 4-byte SAP header minimum) is
	// quarantined by the transport read loop and never reaches the
	// directory; a full-size undecodable packet is counted one layer up.
	if err := ta.SendBatch(context.Background(), []transport.Datagram{
		{Data: []byte{0xff, 0x00, 0x01}, Scope: 1},
		{Data: []byte{0xff, 0x00, 0x01, 0x02, 0x03}, Scope: 1},
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(scaled(2 * time.Second))
	for b.Metrics().PacketsMalformed == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := b.Metrics().PacketsMalformed; got != 1 {
		t.Fatalf("malformed counter = %d", got)
	}
	if got := tb.(*transport.UDPTransport).Metrics().Runts; got != 1 {
		t.Fatalf("transport runt counter = %d", got)
	}
}
