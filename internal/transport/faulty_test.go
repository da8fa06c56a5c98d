package transport

import (
	"context"
	"errors"
	"math"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

func testClockStart() time.Time {
	return time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
}

// faultPair wires sender → receiver over a Bus with the receiver behind a
// FaultTransport built from cfg, returning the clean sender, the fault
// transport and the log of what came out of it.
func faultPair(t *testing.T, cfg FaultConfig) (*BusEndpoint, *FaultTransport, *msgLog) {
	t.Helper()
	bus := NewBus()
	send, recv := bus.Endpoint(), bus.Endpoint()
	ft, err := NewFault(recv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := &msgLog{}
	ft.Subscribe(log.add)
	t.Cleanup(func() {
		_ = ft.Close()
		_ = send.Close()
	})
	return send, ft, log
}

type msgLog struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (l *msgLog) add(m Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.msgs = append(l.msgs, m.Data)
}

func (l *msgLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.msgs)
}

func (l *msgLog) all() [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([][]byte(nil), l.msgs...)
}

func TestFaultRequiresRNG(t *testing.T) {
	bus := NewBus()
	if _, err := NewFault(bus.Endpoint(), FaultConfig{}); err == nil {
		t.Fatal("nil RNG accepted")
	}
	if _, err := NewFault(nil, FaultConfig{RNG: stats.NewRNG(1)}); err == nil {
		t.Fatal("nil inner accepted")
	}
	for _, p := range []fault.Profile{
		{Loss: 1.5},
		{Corrupt: math.NaN()},
		{DelayMin: time.Second, DelayMax: time.Millisecond},
	} {
		if _, err := NewFault(bus.Endpoint(), FaultConfig{RNG: stats.NewRNG(1), Profile: p}); err == nil {
			t.Fatalf("invalid profile accepted: %+v", p)
		}
	}
}

func TestFaultZeroProfilePassesThrough(t *testing.T) {
	send, ft, log := faultPair(t, FaultConfig{RNG: stats.NewRNG(1)})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if err := send.Send(ctx, []byte("packet"), 127); err != nil {
			t.Fatal(err)
		}
	}
	if log.count() != 50 {
		t.Fatalf("delivered %d of 50 with zero profile", log.count())
	}
	st := ft.Stats()
	if st.Dropped != 0 || st.Packets != 50 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestFaultSendIsNotFaulted: a packet's fate is decided per receiver, so
// even a total-loss profile leaves the outbound path alone.
func TestFaultSendIsNotFaulted(t *testing.T) {
	send, ft, _ := faultPair(t, FaultConfig{RNG: stats.NewRNG(1), Profile: fault.Profile{Loss: 1}})
	back := &msgLog{}
	send.Subscribe(back.add)
	for i := 0; i < 10; i++ {
		if err := ft.Send(context.Background(), []byte("out"), 127); err != nil {
			t.Fatal(err)
		}
	}
	if back.count() != 10 {
		t.Fatalf("peer heard %d of 10 sent through the fault transport", back.count())
	}
	if st := ft.Stats(); st.Packets != 0 {
		t.Fatalf("outbound packets were offered to the fault process: %+v", st)
	}
}

func TestFaultTotalLossAndStats(t *testing.T) {
	send, ft, log := faultPair(t, FaultConfig{RNG: stats.NewRNG(2), Profile: fault.Profile{Loss: 1}})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := send.Send(ctx, []byte("x0x0"), 1); err != nil {
			t.Fatal(err)
		}
	}
	if log.count() != 0 {
		t.Fatalf("delivered %d with loss=1", log.count())
	}
	if st := ft.Stats(); st.Dropped != 20 {
		t.Fatalf("dropped = %d", st.Dropped)
	}
}

func TestFaultDuplication(t *testing.T) {
	send, ft, log := faultPair(t, FaultConfig{RNG: stats.NewRNG(4), Profile: fault.Profile{Duplicate: 1}})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := send.Send(ctx, []byte("dupe"), 1); err != nil {
			t.Fatal(err)
		}
	}
	if log.count() != 20 {
		t.Fatalf("delivered %d, want every packet twice", log.count())
	}
	if st := ft.Stats(); st.Duplicated != 10 {
		t.Fatalf("duplicated = %d", st.Duplicated)
	}
}

func TestFaultCorruptionFlipsExactlyOneBit(t *testing.T) {
	send, _, log := faultPair(t, FaultConfig{RNG: stats.NewRNG(5), Profile: fault.Profile{Corrupt: 1}})
	ctx := context.Background()
	orig := []byte("corrupt me, deterministically")
	for i := 0; i < 25; i++ {
		if err := send.Send(ctx, orig, 1); err != nil {
			t.Fatal(err)
		}
	}
	msgs := log.all()
	if len(msgs) != 25 {
		t.Fatalf("delivered %d", len(msgs))
	}
	for _, m := range msgs {
		if len(m) != len(orig) {
			t.Fatalf("length changed: %d vs %d", len(m), len(orig))
		}
		diff := 0
		for i := range m {
			x := m[i] ^ orig[i]
			for ; x != 0; x &= x - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Fatalf("%d bits flipped, want exactly 1", diff)
		}
	}
	if string(orig) != "corrupt me, deterministically" {
		t.Fatal("sender's buffer was mutated")
	}
}

func TestFaultDelayAndReordering(t *testing.T) {
	clk := NewManualClock(testClockStart())
	send, ft, log := faultPair(t, FaultConfig{RNG: stats.NewRNG(6), Clock: clk})
	fixed := func(d time.Duration) fault.Profile { return fault.Profile{DelayMin: d, DelayMax: d} }

	// Scripted delays: first packet 3 s, second 1 s → arrival order flips.
	ctx := context.Background()
	ft.SetProfile(fixed(3 * time.Second))
	if err := send.Send(ctx, []byte("first"), 1); err != nil {
		t.Fatal(err)
	}
	ft.SetProfile(fixed(time.Second))
	if err := send.Send(ctx, []byte("second"), 1); err != nil {
		t.Fatal(err)
	}
	if log.count() != 0 {
		t.Fatal("delayed packet delivered before Step")
	}
	if st := ft.Stats(); st.Pending != 2 || st.Delayed != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if n := ft.Step(clk.Advance(500 * time.Millisecond)); n != 0 {
		t.Fatalf("early step delivered %d", n)
	}
	if n := ft.Step(clk.Advance(time.Second)); n != 1 {
		t.Fatalf("step at 1.5s delivered %d", n)
	}
	if n := ft.Step(clk.Advance(2 * time.Second)); n != 1 {
		t.Fatalf("step at 3.5s delivered %d", n)
	}
	got := log.all()
	if string(got[0]) != "second" || string(got[1]) != "first" {
		t.Fatalf("no reordering: %q then %q", got[0], got[1])
	}
}

func TestFaultFlushDelayed(t *testing.T) {
	clk := NewManualClock(testClockStart())
	send, ft, log := faultPair(t, FaultConfig{
		RNG:     stats.NewRNG(7),
		Clock:   clk,
		Profile: fault.Profile{DelayMin: time.Minute, DelayMax: time.Hour},
	})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := send.Send(ctx, []byte("held"), 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := ft.FlushDelayed(); n != 5 {
		t.Fatalf("flushed %d", n)
	}
	if log.count() != 5 {
		t.Fatalf("delivered %d after flush", log.count())
	}
	if st := ft.Stats(); st.Pending != 0 {
		t.Fatalf("pending = %d after flush", st.Pending)
	}
}

func TestFaultIngressIndependentPerReceiver(t *testing.T) {
	// One sender, two receivers each behind their own lossy FaultTransport:
	// the loss patterns must differ (independent draws).
	bus := NewBus()
	send := bus.Endpoint()
	mk := func(seed uint64) *msgLog {
		ep := bus.Endpoint()
		ft, err := NewFault(ep, FaultConfig{RNG: stats.NewRNG(seed), Profile: fault.Profile{Loss: 0.5}})
		if err != nil {
			t.Fatal(err)
		}
		log := &msgLog{}
		ft.Subscribe(log.add)
		return log
	}
	logA, logB := mk(100), mk(200)
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if err := send.Send(ctx, []byte{byte(i), 9, 9, 9}, 127); err != nil {
			t.Fatal(err)
		}
	}
	a, b := logA.all(), logB.all()
	if len(a) == 0 || len(b) == 0 || len(a) == 64 || len(b) == 64 {
		t.Fatalf("loss not applied sensibly: %d, %d of 64", len(a), len(b))
	}
	// Identical subsets for 64 packets at 50% loss would be a 2^-64 fluke
	// — i.e. the RNGs are not independent.
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i][0] != b[i][0] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("receivers lost identical packet subsets")
		}
	}
}

func TestFaultClosedSemantics(t *testing.T) {
	_, ft, _ := faultPair(t, FaultConfig{RNG: stats.NewRNG(8)})
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ft.Send(context.Background(), []byte("late"), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := ft.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ft.Step(testClockStart()); n != 0 {
		t.Fatalf("step on closed delivered %d", n)
	}
}

func TestBusPartitionAndHeal(t *testing.T) {
	bus := NewBus()
	a, b, c := bus.Endpoint(), bus.Endpoint(), bus.Endpoint()
	var mu sync.Mutex
	got := map[int]int{}
	for _, ep := range []*BusEndpoint{a, b, c} {
		id := ep.ID()
		ep.Subscribe(func(Message) {
			mu.Lock()
			got[id]++
			mu.Unlock()
		})
	}
	ctx := context.Background()

	// {a,b} | {c}: a→b delivered, a→c and c→anyone severed.
	bus.Partition([]int{a.ID(), b.ID()}, []int{c.ID()})
	if err := a.Send(ctx, []byte("to-b"), 127); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(ctx, []byte("from-c"), 127); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if got[b.ID()] != 1 || got[c.ID()] != 0 || got[a.ID()] != 0 {
		t.Fatalf("partitioned delivery: %v", got)
	}
	mu.Unlock()

	// An endpoint in no group is cut off entirely.
	bus.Partition([]int{a.ID(), c.ID()})
	if err := a.Send(ctx, []byte("to-c"), 127); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(ctx, []byte("from-b"), 127); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if got[c.ID()] != 1 || got[b.ID()] != 1 || got[a.ID()] != 0 {
		t.Fatalf("unlisted endpoint not isolated: %v", got)
	}
	mu.Unlock()

	// Heal restores full connectivity.
	bus.Heal()
	if err := a.Send(ctx, []byte("healed"), 127); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got[b.ID()] != 2 || got[c.ID()] != 2 {
		t.Fatalf("heal did not restore delivery: %v", got)
	}
}

func TestBusPartitionComposesWithPolicy(t *testing.T) {
	bus := NewBus()
	a, b := bus.Endpoint(), bus.Endpoint()
	log := &msgLog{}
	b.Subscribe(log.add)
	bus.Partition([]int{a.ID(), b.ID()})
	bus.SetPolicy(func(from, to int, scope mcast.TTL) bool { return scope >= 64 })
	ctx := context.Background()
	if err := a.Send(ctx, []byte("low"), 15); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, []byte("high"), 127); err != nil {
		t.Fatal(err)
	}
	if log.count() != 1 {
		t.Fatalf("policy not applied inside partition: %d", log.count())
	}
}

// TestBusAsymmetricPolicyConcurrent is the paper's TTL-asymmetry case — A
// hears B but B does not hear A — exercised with concurrent senders so the
// race detector patrols the Bus send/policy paths.
func TestBusAsymmetricPolicyConcurrent(t *testing.T) {
	bus := NewBus()
	a, b := bus.Endpoint(), bus.Endpoint()
	logA, logB := &msgLog{}, &msgLog{}
	a.Subscribe(logA.add)
	b.Subscribe(logB.add)
	// Asymmetric visibility: B→A passes, A→B is scoped out.
	bus.SetPolicy(func(from, to int, _ mcast.TTL) bool { return from == b.ID() && to == a.ID() })

	const n = 200
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = a.Send(ctx, []byte("from-a"), 15)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = b.Send(ctx, []byte("from-b"), 127)
		}
	}()
	wg.Wait()
	if logA.count() != n {
		t.Fatalf("A heard %d of %d from B", logA.count(), n)
	}
	if logB.count() != 0 {
		t.Fatalf("B heard %d packets despite asymmetric scope", logB.count())
	}
}

// TestBusCloseSendRace hammers Send against concurrent endpoint Close,
// attach, policy swaps, and partition changes. The assertions are "no
// panic, no deadlock, no race-detector report"; run under -race (the CI
// race job does).
func TestBusCloseSendRace(t *testing.T) {
	bus := NewBus()
	stable := bus.Endpoint()
	defer stable.Close()
	stable.Subscribe(func(Message) {})

	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ep := bus.Endpoint()
				ep.Subscribe(func(Message) {})
				_ = ep.Send(ctx, []byte("churn"), 127)
				_ = stable.Send(ctx, []byte("stable"), 127)
				if i%3 == 0 {
					bus.Partition([]int{stable.ID(), ep.ID()})
				} else {
					bus.Heal()
				}
				if i%5 == 0 {
					bus.SetPolicy(func(from, to int, _ mcast.TTL) bool { return from != to })
				} else {
					bus.SetPolicy(nil)
				}
				_ = ep.Close()
				_ = ep.Send(ctx, []byte("after-close"), 127)
			}
		}(w)
	}
	wg.Wait()
	bus.Heal()
	bus.SetPolicy(nil)
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
	recv.Subscribe(func(m Message) { msgs <- m })

	badA := netip.MustParseAddrPort("[::1]:9")
	badB := netip.MustParseAddrPort("[::2]:9")
	send, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{badA, recv.LocalAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	ctx := context.Background()
	serr := send.Send(ctx, []byte("fanout survives"), 127)
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
	serr = allBad.Send(ctx, []byte("doomed"), 127)
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
	recv.Subscribe(func(m Message) { msgs <- m })

	send, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{recv.LocalAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	ctx := context.Background()
	if err := send.Send(ctx, make([]byte, 32), 127); err != nil {
		t.Fatal(err)
	}
	if err := send.Send(ctx, []byte("small ok"), 127); err != nil {
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
