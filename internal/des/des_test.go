package des

import (
	"context"
	"sync"
	"testing"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/topology"
	"sessiondir/internal/transport"
)

func simStart() time.Time {
	return time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(simStart())
	var order []int
	e.After(3*time.Second, func() { order = append(order, 3) })
	e.After(1*time.Second, func() { order = append(order, 1) })
	e.After(2*time.Second, func() { order = append(order, 2) })
	// Same-time events run in scheduling order.
	e.After(1*time.Second, func() { order = append(order, 11) })
	n := e.RunFor(10 * time.Second)
	if n != 4 {
		t.Fatalf("processed %d", n)
	}
	want := []int{1, 11, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != simStart().Add(10*time.Second) {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestEngineDeadlineStopsBeforeLaterEvents(t *testing.T) {
	e := NewEngine(simStart())
	ran := false
	e.After(5*time.Second, func() { ran = true })
	e.RunFor(2 * time.Second)
	if ran {
		t.Fatal("future event ran")
	}
	e.RunFor(4 * time.Second)
	if !ran {
		t.Fatal("due event skipped")
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(simStart())
	count := 0
	e.Every(time.Second, func() { count++ })
	e.RunFor(5500 * time.Millisecond)
	if count != 5 {
		t.Fatalf("periodic ran %d times", count)
	}
	if e.Pending() == 0 {
		t.Fatal("periodic chain broken")
	}
	if e.String() == "" {
		t.Fatal("String")
	}
}

func TestEngineSchedulePastClamps(t *testing.T) {
	e := NewEngine(simStart())
	ran := false
	e.Schedule(simStart().Add(-time.Hour), func() { ran = true })
	e.RunFor(time.Millisecond)
	if !ran {
		t.Fatal("past event dropped")
	}
}

func TestEngineEveryZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(simStart()).Every(0, func() {})
}

func lineTopo(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddLink(topology.NodeID(i), topology.NodeID(i+1), 1, 1, 10)
	}
	return g
}

func TestNetValidation(t *testing.T) {
	e := NewEngine(simStart())
	if _, err := NewNet(e, NetConfig{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	net, err := NewNet(e, NetConfig{Graph: lineTopo(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(5); err == nil {
		t.Fatal("out-of-graph attach accepted")
	}
	if _, err := net.Attach(0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Attach(0); err == nil {
		t.Fatal("duplicate attach accepted")
	}
}

func TestNetScopedDelayedDelivery(t *testing.T) {
	e := NewEngine(simStart())
	g := lineTopo(t, 5)
	net, err := NewNet(e, NetConfig{Graph: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[topology.NodeID][]time.Time{}
	for _, node := range []topology.NodeID{2, 4} {
		ep, err := net.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		n := node
		ep.Subscribe(func([]transport.Message) {
			mu.Lock()
			got[n] = append(got[n], e.Now())
			mu.Unlock()
		})
	}
	// TTL 3 reaches nodes 1,2 but not 4 (needs TTL 5).
	if err := src.SendBatch(context.Background(), oneDgram([]byte("x"), mcast.TTL(3))); err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Second)
	if len(got[2]) != 1 {
		t.Fatalf("node2 deliveries = %d", len(got[2]))
	}
	if len(got[4]) != 0 {
		t.Fatal("out-of-scope node received the packet")
	}
	// Delivery delay: 2 hops × 10 ms.
	if d := got[2][0].Sub(simStart()); d != 20*time.Millisecond {
		t.Fatalf("delivery delay %v", d)
	}
}

func TestNetLossRate(t *testing.T) {
	e := NewEngine(simStart())
	g := lineTopo(t, 2)
	net, err := NewNet(e, NetConfig{Graph: g, Profile: fault.Profile{Loss: 0.3}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.Attach(0)
	dst, _ := net.Attach(1)
	received := 0
	dst.Subscribe(func(ms []transport.Message) { received += len(ms) })
	const sent = 5000
	for i := 0; i < sent; i++ {
		if err := src.SendBatch(context.Background(), oneDgram([]byte("x"), 10)); err != nil {
			t.Fatal(err)
		}
	}
	e.RunFor(time.Minute)
	rate := float64(received) / sent
	if rate < 0.65 || rate > 0.75 {
		t.Fatalf("delivery rate %v, want ≈0.70", rate)
	}
}

func TestNetClosedEndpoint(t *testing.T) {
	e := NewEngine(simStart())
	net, _ := NewNet(e, NetConfig{Graph: lineTopo(t, 2), Seed: 3})
	src, _ := net.Attach(0)
	dst, _ := net.Attach(1)
	delivered := false
	dst.Subscribe(func([]transport.Message) { delivered = true })
	dst.Close()
	if err := src.SendBatch(context.Background(), oneDgram([]byte("x"), 10)); err != nil {
		t.Fatal(err)
	}
	e.RunFor(time.Second)
	if delivered {
		t.Fatal("closed endpoint received a packet")
	}
	src.Close()
	if err := src.SendBatch(context.Background(), oneDgram([]byte("x"), 10)); err == nil {
		t.Fatal("closed endpoint sent a packet")
	}
}

// oneDgram is a batch of one datagram.
func oneDgram(data []byte, scope mcast.TTL) []transport.Datagram {
	return []transport.Datagram{{Data: data, Scope: scope}}
}
