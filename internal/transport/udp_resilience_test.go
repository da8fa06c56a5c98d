package transport

import (
	"context"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sessiondir/internal/stats"
)

// Resilience tests: socket rebind after external close and graceful
// drain before close — the transport behaviours the process-chaos
// harness leans on.

// spareAddr returns the address of a bound-and-held UDP socket, giving
// tests a peer address that is guaranteed not to collide.
func spareAddr(t *testing.T) netip.AddrPort {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c.LocalAddr().(*net.UDPAddr).AddrPort()
}

func newUnicastForTest(t *testing.T) *UDPTransport {
	t.Helper()
	tr, err := NewUDP(UDPConfig{
		Peers:      []netip.AddrPort{spareAddr(t)},
		ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// newInjector returns a raw socket for pushing datagrams at a transport.
func newInjector(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestRebindAfterSocketClosed yanks the transport's socket out from
// under it and checks the read loop rebinds to the same port and keeps
// receiving.
func TestRebindAfterSocketClosed(t *testing.T) {
	tr := newUnicastForTest(t)
	var got atomic.Uint64
	tr.Subscribe(func(ms []Message) {
		got.Add(uint64(len(ms)))
	})

	_ = tr.io.Load().conn.Close() // simulate the socket dying under the loop

	inj := newInjector(t)
	deadline := time.Now().Add(5 * time.Second)
	for got.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no datagram received after socket close; rebinds=%d, readErrors=%d",
				tr.Metrics().Rebinds, tr.Metrics().ReadErrors)
		}
		if _, err := inj.WriteToUDPAddrPort([]byte("ping"), tr.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tr.Metrics().Rebinds == 0 {
		t.Fatal("datagram received but rebind counter is zero")
	}
}

// TestDrainCloseDeliversTailBurst sends a burst and immediately drains;
// everything queued in the kernel's socket buffer must still reach the
// handler before the transport closes. A plain Close would discard it.
func TestDrainCloseDeliversTailBurst(t *testing.T) {
	tr := newUnicastForTest(t)
	var got atomic.Uint64
	tr.Subscribe(func(ms []Message) {
		got.Add(uint64(len(ms)))
	})

	inj := newInjector(t)
	const burst = 120
	for i := 0; i < burst; i++ {
		if _, err := inj.WriteToUDPAddrPort([]byte("data"), tr.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.DrainClose(300*time.Millisecond, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := got.Load(); n != burst {
		t.Fatalf("drain delivered %d of %d datagrams", n, burst)
	}
	if err := tr.SendBatch(context.Background(), oneDgram([]byte("data"), 1)); err != ErrClosed {
		t.Fatalf("Send after DrainClose = %v, want ErrClosed", err)
	}
}

// TestDrainCloseAfterClose is a no-op on an already-closed transport.
func TestDrainCloseAfterClose(t *testing.T) {
	tr := newUnicastForTest(t)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tr.DrainClose(time.Second, time.Minute); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("DrainClose on closed transport took %v", elapsed)
	}
}

func TestNextReadBackoffSchedule(t *testing.T) {
	rng := stats.NewRNG(42)
	cur := time.Duration(0)
	seen := make([]time.Duration, 0, 16)
	for i := 0; i < 16; i++ {
		cur = nextReadBackoff(cur, rng)
		seen = append(seen, cur)
		lo := time.Duration(float64(readBackoffMin) * (1 - readBackoffJitter))
		if cur < lo {
			t.Fatalf("backoff %v below jittered floor %v", cur, lo)
		}
		if cur > readBackoffMax {
			t.Fatalf("backoff %v above cap %v", cur, readBackoffMax)
		}
	}
	// The schedule must actually grow toward the cap.
	if seen[len(seen)-1] < readBackoffMax/2 {
		t.Fatalf("backoff never approached the cap: %v", seen)
	}
	if seen[0] > 4*readBackoffMin {
		t.Fatalf("first backoff %v too large", seen[0])
	}
}

func TestUDPSendFanoutAggregatesErrors(t *testing.T) {
	// An IPv6 peer on a udp4 socket fails the write synchronously; the
	// fan-out must keep going so the healthy peer still receives, and the
	// returned error must name the failed peer.
	recv, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:1")}})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	msgs := make(chan Message, 1)
	recv.Subscribe(keepAll(msgs))

	badA := netip.MustParseAddrPort("[::1]:9")
	badB := netip.MustParseAddrPort("[::2]:9")
	send, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{badA, recv.LocalAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	ctx := context.Background()
	serr := send.SendBatch(ctx, oneDgram([]byte("fanout survives"), 127))
	if serr == nil {
		t.Fatal("send to an IPv6 peer over a udp4 socket reported success")
	}
	if !strings.Contains(serr.Error(), "::1") {
		t.Fatalf("error does not name the failed peer: %v", serr)
	}
	select {
	case m := <-msgs:
		if string(m.Data) != "fanout survives" {
			t.Fatalf("got %q", m.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("healthy peer never received: fan-out stopped at the first error")
	}

	// With every peer failing, the joined error must name each of them.
	allBad, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{badA, badB}})
	if err != nil {
		t.Fatal(err)
	}
	defer allBad.Close()
	serr = allBad.SendBatch(ctx, oneDgram([]byte("doomed"), 127))
	if serr == nil {
		t.Fatal("all-peers-failed send reported success")
	}
	for _, want := range []string{"::1", "::2"} {
		if !strings.Contains(serr.Error(), want) {
			t.Fatalf("aggregate error missing peer %s: %v", want, serr)
		}
	}
}

func TestUDPOversizedQuarantine(t *testing.T) {
	recv, err := NewUDP(UDPConfig{
		Peers:     []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:1")},
		MaxPacket: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	msgs := make(chan Message, 2)
	recv.Subscribe(keepAll(msgs))

	send, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{recv.LocalAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	ctx := context.Background()
	if err := send.SendBatch(ctx, oneDgram(make([]byte, 32), 127)); err != nil {
		t.Fatal(err)
	}
	if err := send.SendBatch(ctx, oneDgram([]byte("small ok"), 127)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if string(m.Data) != "small ok" {
			t.Fatalf("oversized datagram leaked through: %q", m.Data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-bounds datagram never arrived")
	}
	deadline := time.Now().Add(2 * time.Second)
	for recv.Metrics().Oversized == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	m := recv.Metrics()
	if m.Oversized != 1 || m.Received != 1 {
		t.Fatalf("metrics: %+v", m)
	}
}
