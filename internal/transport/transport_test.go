package transport

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"sessiondir/internal/mcast"
)

func TestBusDeliversToOthersNotSelf(t *testing.T) {
	bus := NewBus()
	a, b, c := bus.Endpoint(), bus.Endpoint(), bus.Endpoint()
	defer a.Close()
	defer b.Close()
	defer c.Close()

	var mu sync.Mutex
	got := map[int][]string{}
	sub := func(ep *BusEndpoint) {
		id := ep.ID()
		ep.Subscribe(func(ms []Message) {
			mu.Lock()
			for _, m := range ms {
				got[id] = append(got[id], string(m.Data))
			}
			mu.Unlock()
		})
	}
	sub(a)
	sub(b)
	sub(c)

	if err := a.SendBatch(context.Background(), oneDgram([]byte("hello"), 127)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got[a.ID()]) != 0 {
		t.Fatal("sender received its own packet")
	}
	if len(got[b.ID()]) != 1 || got[b.ID()][0] != "hello" {
		t.Fatalf("b got %v", got[b.ID()])
	}
	if len(got[c.ID()]) != 1 {
		t.Fatalf("c got %v", got[c.ID()])
	}
}

func TestBusPolicyScopesDelivery(t *testing.T) {
	bus := NewBus()
	a, b, c := bus.Endpoint(), bus.Endpoint(), bus.Endpoint()
	// Only scope >= 64 crosses from a to c; a to b always.
	bus.SetPolicy(func(from, to int, scope mcast.TTL) bool {
		if from == a.ID() && to == c.ID() {
			return scope >= 64
		}
		return true
	})
	var mu sync.Mutex
	counts := map[int]int{}
	for _, ep := range []*BusEndpoint{b, c} {
		id := ep.ID()
		ep.Subscribe(func(ms []Message) {
			mu.Lock()
			counts[id] += len(ms)
			mu.Unlock()
		})
	}
	ctx := context.Background()
	a.SendBatch(ctx, oneDgram([]byte("x"), 15))  //nolint:errcheck
	a.SendBatch(ctx, oneDgram([]byte("y"), 127)) //nolint:errcheck
	mu.Lock()
	defer mu.Unlock()
	if counts[b.ID()] != 2 {
		t.Fatalf("b count = %d", counts[b.ID()])
	}
	if counts[c.ID()] != 1 {
		t.Fatalf("c count = %d", counts[c.ID()])
	}
}

// oneDgram is a batch of one datagram.
func oneDgram(data []byte, scope mcast.TTL) []Datagram {
	return []Datagram{{Data: data, Scope: scope}}
}

// keep copies what a test handler holds past its return: Data is only
// on loan for the call.
func keep(m Message) Message {
	m.Data = bytes.Clone(m.Data)
	return m
}

// keepAll is a handler that sends a kept copy of every datagram to ch.
func keepAll(ch chan<- Message) Handler {
	return func(ms []Message) {
		for _, m := range ms {
			ch <- keep(m)
		}
	}
}

// TestBusDataIsValidForTheCallOnly: during the handler call Data is what
// was sent, in a copy private to the recipient; once the handler returns
// the Bus poisons that copy, so a retained alias cannot go unnoticed.
func TestBusDataIsValidForTheCallOnly(t *testing.T) {
	bus := NewBus()
	a, b := bus.Endpoint(), bus.Endpoint()
	payload := []byte("mutable")
	var during string
	var retained []byte
	b.Subscribe(func(ms []Message) {
		payload[0] = 'X' // the sender's slice must not show through
		during = string(ms[0].Data)
		retained = ms[0].Data // the bug the poison exists to expose
	})
	a.SendBatch(context.Background(), oneDgram(payload, 1)) //nolint:errcheck
	if during != "mutable" {
		t.Fatalf("Data during the call = %q, want what was sent, unaliased", during)
	}
	if want := bytes.Repeat([]byte{0xDB}, len(payload)); !bytes.Equal(retained, want) {
		t.Fatalf("Data after the handler returned = %q, want it poisoned", retained)
	}
	if string(payload) != "Xutable" {
		t.Fatalf("the sender's own slice was touched: %q", payload)
	}
}

func TestBusClosedSend(t *testing.T) {
	bus := NewBus()
	a := bus.Endpoint()
	a.Close()
	if err := a.SendBatch(context.Background(), oneDgram([]byte("x"), 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBusClosedEndpointNotDelivered(t *testing.T) {
	bus := NewBus()
	a, b := bus.Endpoint(), bus.Endpoint()
	delivered := false
	b.Subscribe(func([]Message) { delivered = true })
	b.Close()
	a.SendBatch(context.Background(), oneDgram([]byte("x"), 1)) //nolint:errcheck
	if delivered {
		t.Fatal("closed endpoint received a packet")
	}
}

func TestUDPUnicastFanout(t *testing.T) {
	recv, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:1")}})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	msgs := make(chan Message, 4)
	recv.Subscribe(keepAll(msgs))

	send, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{recv.LocalAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := send.SendBatch(ctx, oneDgram([]byte("sap packet"), 127)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if string(m.Data) != "sap packet" {
			t.Fatalf("got %q", m.Data)
		}
		if m.From.Port() != send.LocalAddr().Port() {
			t.Fatalf("from = %v, sender = %v", m.From, send.LocalAddr())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for packet")
	}
}

func TestUDPBidirectional(t *testing.T) {
	a, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:1")}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{a.LocalAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Point a at b now that b exists.
	a.peers = []netip.AddrPort{b.LocalAddr()}

	fromA := make(chan string, 1)
	fromB := make(chan string, 1)
	a.Subscribe(func(ms []Message) { fromB <- string(ms[0].Data) })
	b.Subscribe(func(ms []Message) { fromA <- string(ms[0].Data) })

	ctx := context.Background()
	if err := a.SendBatch(ctx, oneDgram([]byte("ping"), 15)); err != nil {
		t.Fatal(err)
	}
	if err := b.SendBatch(ctx, oneDgram([]byte("pong"), 15)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case got := <-fromA:
			if got != "ping" {
				t.Fatalf("b got %q", got)
			}
		case got := <-fromB:
			if got != "pong" {
				t.Fatalf("a got %q", got)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestUDPClosedSend(t *testing.T) {
	tr, err := NewUDP(UDPConfig{Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:1")}})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if err := tr.SendBatch(context.Background(), oneDgram([]byte("x"), 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUDPMulticastOrSkip(t *testing.T) {
	// Real multicast needs routing support; skip gracefully where absent.
	grp := netip.MustParseAddr("239.255.77.77")
	recv, err := NewUDP(UDPConfig{Group: grp, Port: 19876})
	if err != nil {
		t.Skipf("multicast unavailable: %v", err)
	}
	defer recv.Close()
	msgs := make(chan Message, 1)
	recv.Subscribe(keepAll(msgs))

	send, err := NewUDP(UDPConfig{Group: grp, Port: 19876})
	if err != nil {
		t.Skipf("multicast send socket unavailable: %v", err)
	}
	defer send.Close()
	// ≥ 4 bytes: shorter datagrams are quarantined as runts by the read loop.
	if err := send.SendBatch(context.Background(), oneDgram([]byte("mc-hello"), 1)); err != nil {
		t.Skipf("multicast send failed: %v", err)
	}
	select {
	case m := <-msgs:
		if string(m.Data) != "mc-hello" {
			t.Fatalf("got %q", m.Data)
		}
	case <-time.After(time.Second):
		t.Skip("multicast loopback not delivered; environment lacks multicast")
	}
}

func TestUDPRejectsNonMulticastGroup(t *testing.T) {
	if _, err := NewUDP(UDPConfig{Group: netip.MustParseAddr("10.0.0.1")}); err == nil {
		t.Fatal("unicast group accepted")
	}
}

type msgLog struct {
	mu   sync.Mutex
	msgs [][]byte
}

func (l *msgLog) add(ms []Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range ms {
		l.msgs = append(l.msgs, keep(m).Data)
	}
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
			_ = a.SendBatch(ctx, oneDgram([]byte("from-a"), 15))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_ = b.SendBatch(ctx, oneDgram([]byte("from-b"), 127))
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
// attach and policy swaps. The assertions are "no
// panic, no deadlock, no race-detector report"; run under -race (the CI
// race job does).
func TestBusCloseSendRace(t *testing.T) {
	bus := NewBus()
	stable := bus.Endpoint()
	defer stable.Close()
	stable.Subscribe(func([]Message) {})

	var wg sync.WaitGroup
	ctx := context.Background()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ep := bus.Endpoint()
				ep.Subscribe(func([]Message) {})
				_ = ep.SendBatch(ctx, oneDgram([]byte("churn"), 127))
				_ = stable.SendBatch(ctx, oneDgram([]byte("stable"), 127))
				if i%5 == 0 {
					bus.SetPolicy(func(from, to int, _ mcast.TTL) bool { return from != to })
				} else {
					bus.SetPolicy(nil)
				}
				_ = ep.Close()
				_ = ep.SendBatch(ctx, oneDgram([]byte("after-close"), 127))
			}
		}(w)
	}
	wg.Wait()
	bus.SetPolicy(nil)
}
