package relay

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/fault"
)

// endpoint is a raw UDP listener standing in for a daemon: it records
// every datagram delivered to it.
type endpoint struct {
	conn *net.UDPConn
	addr netip.AddrPort
	got  chan []byte
}

func newEndpoint(t *testing.T) *endpoint {
	t.Helper()
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ep := &endpoint{
		conn: conn,
		addr: conn.LocalAddr().(*net.UDPAddr).AddrPort(),
		got:  make(chan []byte, 4096),
	}
	go func() {
		buf := make([]byte, 2048)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				close(ep.got)
				return
			}
			ep.got <- append([]byte(nil), buf[:n]...)
		}
	}()
	t.Cleanup(func() { _ = conn.Close() })
	return ep
}

// drain collects deliveries until the channel stays quiet for the given
// window.
func (ep *endpoint) drain(quiet time.Duration) [][]byte {
	var out [][]byte
	for {
		select {
		case b, ok := <-ep.got:
			if !ok {
				return out
			}
			out = append(out, b)
		case <-time.After(quiet):
			return out
		}
	}
}

// sender is a raw UDP socket a test uses to push packets into a relay
// ingress address.
func newSender(t *testing.T) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func mustRelay(t *testing.T, cfg Config) *Relay {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

func TestRelayForwardsBetweenEndpoints(t *testing.T) {
	r := mustRelay(t, Config{Seed: 1})
	a, b := newEndpoint(t), newEndpoint(t)
	inA, ia, err := r.Attach(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	if ia != 0 {
		t.Fatalf("first attachment index = %d, want 0", ia)
	}
	if _, ib, err := r.Attach(b.addr); err != nil || ib != 1 {
		t.Fatalf("second attachment: index=%d err=%v", ib, err)
	}
	send := newSender(t)
	if _, err := send.WriteToUDPAddrPort([]byte("hello"), inA); err != nil {
		t.Fatal(err)
	}
	got := b.drain(300 * time.Millisecond)
	if len(got) != 1 || string(got[0]) != "hello" {
		t.Fatalf("endpoint B got %q, want one \"hello\"", got)
	}
	// The sender's own attachment must not hear an echo.
	if back := a.drain(100 * time.Millisecond); len(back) != 0 {
		t.Fatalf("endpoint A heard its own packet: %q", back)
	}
	if s := r.Stats(); s.Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1", s.Forwarded)
	}
}

// TestRelayLossScheduleReplaysBySeed is the determinism contract: with
// the same seed and the same per-link packet sequence, the set of
// surviving packet indices is identical run to run — even though the
// runs are separate relays on separate sockets.
func TestRelayLossScheduleReplaysBySeed(t *testing.T) {
	const n = 400
	survivors := func(seed uint64) []int {
		r := mustRelay(t, Config{Seed: seed})
		a, b := newEndpoint(t), newEndpoint(t)
		inA, _, err := r.Attach(a.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Attach(b.addr); err != nil {
			t.Fatal(err)
		}
		r.SetLink(-1, -1, fault.Profile{Loss: 0.5})
		send := newSender(t)
		for i := 0; i < n; i++ {
			if _, err := send.WriteToUDPAddrPort([]byte(fmt.Sprintf("pkt-%04d", i)), inA); err != nil {
				t.Fatal(err)
			}
			// Pace slightly so the loopback receive queue never overflows;
			// per-link determinism only needs per-sender ordering.
			if i%64 == 63 {
				time.Sleep(2 * time.Millisecond)
			}
		}
		var idx []int
		for _, p := range b.drain(400 * time.Millisecond) {
			var i int
			if _, err := fmt.Sscanf(string(p), "pkt-%d", &i); err != nil {
				t.Fatalf("unparseable delivery %q", p)
			}
			idx = append(idx, i)
		}
		sort.Ints(idx)
		return idx
	}

	first := survivors(0xfeed)
	second := survivors(0xfeed)
	if len(first) == 0 || len(first) == n {
		t.Fatalf("loss 0.5 delivered %d/%d packets; fault process inert", len(first), n)
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("survivor sets differ for the same seed:\n run1: %v\n run2: %v", first, second)
	}
	// A different seed must (overwhelmingly) pick a different schedule.
	if other := survivors(0xbeef); fmt.Sprint(other) == fmt.Sprint(first) {
		t.Fatalf("seeds 0xfeed and 0xbeef produced identical %d-packet schedules", n)
	}
}

func TestRelayPartitionBlocksAndHeals(t *testing.T) {
	r := mustRelay(t, Config{Seed: 3})
	a, b := newEndpoint(t), newEndpoint(t)
	inA, _, err := r.Attach(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Attach(b.addr); err != nil {
		t.Fatal(err)
	}
	send := newSender(t)

	r.Partition([]int{0}, []int{1})
	if got := r.SeveredLinks(); got != 2 {
		t.Fatalf("SeveredLinks = %d, want 2", got)
	}
	if _, err := send.WriteToUDPAddrPort([]byte("cut"), inA); err != nil {
		t.Fatal(err)
	}
	if got := b.drain(250 * time.Millisecond); len(got) != 0 {
		t.Fatalf("partitioned delivery leaked through: %q", got)
	}
	if s := r.Stats(); s.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops = %d, want 1", s.PartitionDrops)
	}

	r.Heal()
	if got := r.SeveredLinks(); got != 0 {
		t.Fatalf("SeveredLinks after heal = %d, want 0", got)
	}
	if _, err := send.WriteToUDPAddrPort([]byte("healed"), inA); err != nil {
		t.Fatal(err)
	}
	if got := b.drain(300 * time.Millisecond); len(got) != 1 || string(got[0]) != "healed" {
		t.Fatalf("post-heal delivery = %q, want one \"healed\"", got)
	}
	if s := r.Stats(); s.PartitionDrops != 1 {
		t.Fatalf("PartitionDrops after heal = %d, want still 1", s.PartitionDrops)
	}
}

func TestRelayCorruptFlipsExactlyOneBit(t *testing.T) {
	r := mustRelay(t, Config{Seed: 11})
	a, b := newEndpoint(t), newEndpoint(t)
	inA, _, err := r.Attach(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Attach(b.addr); err != nil {
		t.Fatal(err)
	}
	r.SetLink(0, 1, fault.Profile{Corrupt: 1})
	orig := []byte("payload-under-test")
	send := newSender(t)
	if _, err := send.WriteToUDPAddrPort(orig, inA); err != nil {
		t.Fatal(err)
	}
	got := b.drain(300 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(got))
	}
	diff := 0
	for i := range orig {
		x := orig[i] ^ got[0][i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1 (got %q)", diff, got[0])
	}
	if s := r.Stats(); s.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", s.Corrupted)
	}
}

func TestRelayDuplicateDeliversTwice(t *testing.T) {
	r := mustRelay(t, Config{Seed: 12})
	a, b := newEndpoint(t), newEndpoint(t)
	inA, _, err := r.Attach(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Attach(b.addr); err != nil {
		t.Fatal(err)
	}
	r.SetLink(0, 1, fault.Profile{Duplicate: 1})
	send := newSender(t)
	if _, err := send.WriteToUDPAddrPort([]byte("twin"), inA); err != nil {
		t.Fatal(err)
	}
	got := b.drain(300 * time.Millisecond)
	if len(got) != 2 || string(got[0]) != "twin" || string(got[1]) != "twin" {
		t.Fatalf("duplicate link delivered %q, want [\"twin\" \"twin\"]", got)
	}
}

func TestRelayDelayDeliversLate(t *testing.T) {
	r := mustRelay(t, Config{Seed: 13})
	a, b := newEndpoint(t), newEndpoint(t)
	inA, _, err := r.Attach(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Attach(b.addr); err != nil {
		t.Fatal(err)
	}
	r.SetLink(0, 1, fault.Profile{DelayMin: 60 * time.Millisecond, DelayMax: 80 * time.Millisecond})
	send := newSender(t)
	start := time.Now()
	if _, err := send.WriteToUDPAddrPort([]byte("later"), inA); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-b.got:
		if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
			t.Fatalf("delayed packet arrived after only %v", elapsed)
		}
		if string(p) != "later" {
			t.Fatalf("delivered %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delayed packet never arrived")
	}
	if s := r.Stats(); s.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", s.Delayed)
	}
}

// TestRelayCloseCancelsPendingDelays pins that Close returns promptly
// even with far-future deliveries queued, instead of waiting them out.
func TestRelayCloseCancelsPendingDelays(t *testing.T) {
	r, err := New(Config{Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	a, b := newEndpoint(t), newEndpoint(t)
	inA, _, err := r.Attach(a.addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Attach(b.addr); err != nil {
		t.Fatal(err)
	}
	r.SetLink(0, 1, fault.Profile{DelayMin: time.Minute, DelayMax: 2 * time.Minute})
	send := newSender(t)
	if _, err := send.WriteToUDPAddrPort([]byte("stranded"), inA); err != nil {
		t.Fatal(err)
	}
	// Wait for the packet to reach the delay queue before closing.
	deadline := time.Now().Add(2 * time.Second)
	for r.Stats().Pending == 0 {
		if time.Now().After(deadline) {
			t.Fatal("packet never entered the delay queue")
		}
		time.Sleep(5 * time.Millisecond)
	}
	done := make(chan error, 1)
	go func() { done <- r.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a pending delayed delivery")
	}
	if got := b.drain(100 * time.Millisecond); len(got) != 0 {
		t.Fatalf("cancelled delivery still arrived: %q", got)
	}
}

func TestRelayRequiresSeed(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a zero seed")
	}
}

// inProcessDeliveries is what link i→j of a relay seeded with seed must
// deliver for payloads sent in this order, computed without any socket:
// the same fault.Process over the same fault.LinkRNG stream.
func inProcessDeliveries(seed uint64, i, j int, p fault.Profile, payloads [][]byte) [][]byte {
	proc := fault.Process{Profile: p}
	rng := fault.LinkRNG(seed, i, j)
	var out [][]byte
	for _, pl := range payloads {
		f := proc.Next(rng, len(pl))
		if f.Drop {
			continue
		}
		if f.CorruptBit >= 0 {
			pl = fault.Flip(pl, f.CorruptBit)
		}
		out = append(out, pl)
		if f.Dup {
			out = append(out, pl)
		}
	}
	return out
}

// sendPaced pushes payloads into attachment from's ingress socket, and
// every 32 packets waits until the relay has decided them all, so no
// socket queue can overflow and silently shorten the link's sequence.
func sendPaced(t *testing.T, r *Relay, in netip.AddrPort, from, to int, payloads [][]byte) {
	t.Helper()
	send := newSender(t)
	r.mu.Lock()
	l := r.linkFor(from, to)
	base := l.Packets
	r.mu.Unlock()
	for k, pl := range payloads {
		if _, err := send.WriteToUDPAddrPort(pl, in); err != nil {
			t.Fatal(err)
		}
		if k%32 != 31 && k != len(payloads)-1 {
			continue
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			r.mu.Lock()
			decided := l.Packets - base
			r.mu.Unlock()
			if decided == uint64(k+1) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("relay decided %d of %d packets sent on link %d→%d", decided, k+1, from, to)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func numbered(prefix string, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		// Varying lengths: the corrupt-bit draw is bounded by the length.
		out[i] = []byte(fmt.Sprintf("%s%04d%s", prefix, i, strings.Repeat("x", i%23)))
	}
	return out
}

func assertSameDeliveries(t *testing.T, got, want [][]byte) {
	t.Helper()
	for k := 0; k < len(got) && k < len(want); k++ {
		if !bytes.Equal(got[k], want[k]) {
			t.Fatalf("delivery %d: relay forwarded %q, in-process link says %q", k, got[k], want[k])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("relay forwarded %d copies, in-process link says %d", len(got), len(want))
	}
}

// TestRelayFatesMatchInProcessLink is the cross-level replay property: a
// seed that fails at process level reproduces in-process, because the
// relay's link 0→1 and fault.Process.Next over fault.LinkRNG(seed, 0, 1)
// drop the same packets, duplicate the same packets and flip the same
// bit. With no delay, arrival order on loopback is send order, so the two
// delivery sequences must be equal element for element.
func TestRelayFatesMatchInProcessLink(t *testing.T) {
	const seed = 0x5eed
	t.Run("fates", func(t *testing.T) {
		profile := fault.Profile{Loss: 0.3, Duplicate: 0.2, Corrupt: 0.25}
		r := mustRelay(t, Config{Seed: seed})
		a, b := newEndpoint(t), newEndpoint(t)
		inA, _, err := r.Attach(a.addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.Attach(b.addr); err != nil {
			t.Fatal(err)
		}
		r.SetLink(0, 1, profile)
		payloads := numbered("pkt-", 600)
		sendPaced(t, r, inA, 0, 1, payloads)
		assertSameDeliveries(t, b.drain(300*time.Millisecond), inProcessDeliveries(seed, 0, 1, profile, payloads))
		if s := r.Stats(); s.Dropped == 0 || s.Duplicated == 0 || s.Corrupted == 0 {
			t.Fatalf("schedule did not exercise every fate: %+v", s)
		}
	})

	// A link's stream depends on (seed, i, j) alone: creating the links,
	// attaching the third endpoint and carrying the other links' traffic
	// in a different order leaves link 0→1's fates where they were.
	t.Run("order-independent", func(t *testing.T) {
		profile := fault.Profile{Loss: 0.4, Duplicate: 0.3}
		from0 := numbered("from0-", 100)
		link01 := func(othersFirst bool) [][]byte {
			r := mustRelay(t, Config{Seed: seed})
			eps := []*endpoint{newEndpoint(t), newEndpoint(t), newEndpoint(t)}
			ins := make([]netip.AddrPort, len(eps))
			attach := func(i int) {
				in, idx, err := r.Attach(eps[i].addr)
				if err != nil || idx != i {
					t.Fatalf("attach %d: index %d, err %v", i, idx, err)
				}
				ins[i] = in
			}
			if othersFirst {
				attach(0)
				attach(1)
				r.SetLink(1, 0, profile)
				sendPaced(t, r, ins[1], 1, 0, numbered("from1-", 50))
				attach(2)
				r.SetLink(2, -1, profile)
				sendPaced(t, r, ins[2], 2, 1, numbered("from2-", 50))
				r.SetLink(-1, -1, profile)
				sendPaced(t, r, ins[0], 0, 1, from0)
			} else {
				attach(0)
				attach(1)
				attach(2)
				r.SetLink(-1, -1, profile)
				sendPaced(t, r, ins[0], 0, 1, from0)
				sendPaced(t, r, ins[2], 2, 1, numbered("from2-", 50))
				sendPaced(t, r, ins[1], 1, 0, numbered("from1-", 50))
			}
			var got [][]byte
			for _, p := range eps[1].drain(300 * time.Millisecond) {
				if bytes.HasPrefix(p, []byte("from0-")) {
					got = append(got, p)
				}
			}
			return got
		}
		want := inProcessDeliveries(seed, 0, 1, profile, from0)
		assertSameDeliveries(t, link01(false), want)
		assertSameDeliveries(t, link01(true), want)
	})
}
