package transport_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"sessiondir/internal/des"
	"sessiondir/internal/mcast"
	"sessiondir/internal/topology"
	"sessiondir/internal/transport"
)

// fabric is one implementation of the send and receive contracts under
// test.
type fabric struct {
	name string
	// inProcess marks Bus and des.Net, which go further than the contracts
	// require and than UDP can: they deliver each datagram on its own, as a
	// batch of one; they overwrite each delivered Data with 0xDB once the
	// handler returns; and they drop a datagram whose scope cannot reach
	// the receiver — TTL 1 never leaves the sender's node — where UDP's
	// unicast fan-out carries the scope in-band only and delivers it.
	inProcess bool
	// open returns a sender, a receiver, and settle, which returns once
	// the first sent datagrams have reached the receiver — and its
	// handler, on the in-process fabrics — or could not, as the receiver
	// is closed.
	open func(t *testing.T) (tx, rx transport.Transport, settle func(sent int))
}

func fabrics() []fabric {
	return []fabric{
		{name: "bus", inProcess: true, open: func(t *testing.T) (transport.Transport, transport.Transport, func(int)) {
			bus := transport.NewBus()
			bus.SetPolicy(func(_, _ int, scope mcast.TTL) bool { return scope > 1 })
			tx, rx := bus.Endpoint(), bus.Endpoint()
			t.Cleanup(func() { _ = tx.Close(); _ = rx.Close() })
			return tx, rx, func(int) {} // delivery is synchronous
		}},
		{name: "des", inProcess: true, open: func(t *testing.T) (transport.Transport, transport.Transport, func(int)) {
			g := topology.NewGraph(2)
			g.MustAddLink(0, 1, 1, 1, 10)
			e := des.NewEngine(time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC))
			n, err := des.NewNet(e, des.NetConfig{Graph: g, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			tx, err := n.Attach(0)
			if err != nil {
				t.Fatal(err)
			}
			rx, err := n.Attach(1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = tx.Close(); _ = rx.Close() })
			return tx, rx, func(int) { e.RunFor(time.Second) }
		}},
		{name: "udp", open: func(t *testing.T) (transport.Transport, transport.Transport, func(int)) {
			rx, err := transport.NewUDP(transport.UDPConfig{Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:9")}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = rx.Close() })
			tx, err := transport.NewUDP(transport.UDPConfig{Peers: []netip.AddrPort{rx.LocalAddr()}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = tx.Close() })
			return tx, rx, func(sent int) {
				// Received counts what the read loop accepted, handler or
				// not; a closed receiver never gets there, hence the cap.
				deadline := time.Now().Add(500 * time.Millisecond)
				for rx.Metrics().Received < uint64(sent) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
		}},
	}
}

// batchLog records what a handler was handed, copied out during the call,
// plus every Data it saw, kept (against the contract) to look at later.
type batchLog struct {
	mu       sync.Mutex
	sizes    []int
	payloads []string
	aliases  [][]byte
}

func (l *batchLog) handle(ms []transport.Message) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sizes = append(l.sizes, len(ms))
	for _, m := range ms {
		l.payloads = append(l.payloads, string(m.Data))
		l.aliases = append(l.aliases, m.Data)
	}
}

func (l *batchLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.payloads)
}

// TestReceiveContract: every transport hands its handler batches of
// datagrams on loan for the call. Batches are never empty and keep send
// order; Data is what was sent while the handler runs, and poisoned once
// it returns on the in-process fabrics; Subscribe(nil) and Close stop
// delivery.
func TestReceiveContract(t *testing.T) {
	const n = 40
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			tx, rx, settle := f.open(t)
			ctx := context.Background()
			sent := 0
			send := func(k int) {
				t.Helper()
				for i := 0; i < k; i++ {
					if err := tx.SendBatch(ctx, []transport.Datagram{{Data: []byte(fmt.Sprintf("dgram-%03d", sent)), Scope: 15}}); err != nil {
						t.Fatal(err)
					}
					sent++
				}
			}

			log := &batchLog{}
			rx.Subscribe(log.handle)
			send(n)
			settle(sent)
			deadline := time.Now().Add(5 * time.Second)
			for log.count() < n && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			log.mu.Lock()
			for _, size := range log.sizes {
				if size == 0 {
					t.Errorf("handler called with an empty batch: sizes %v", log.sizes)
				}
			}
			if len(log.payloads) != n {
				t.Fatalf("%d of %d datagrams delivered", len(log.payloads), n)
			}
			for i, p := range log.payloads {
				if want := fmt.Sprintf("dgram-%03d", i); p != want {
					t.Fatalf("datagram %d = %q, want %q: send order not kept", i, p, want)
				}
			}
			if f.inProcess {
				for i, a := range log.aliases {
					if !bytes.Equal(a, bytes.Repeat([]byte{0xDB}, len(a))) {
						t.Fatalf("datagram %d's Data after the handler returned = %q, want it poisoned", i, a)
					}
				}
			}
			log.mu.Unlock()

			rx.Subscribe(nil)
			send(n)
			settle(sent)
			if got := log.count(); got != n {
				t.Fatalf("%d datagrams delivered after Subscribe(nil)", got-n)
			}

			rx.Subscribe(log.handle)
			if err := rx.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				// A closed receiver may make the send fail (UDP's ICMP port
				// unreachable); either way nothing may arrive.
				_ = tx.SendBatch(ctx, []transport.Datagram{{Data: []byte("after-close"), Scope: 15}})
			}
			settle(sent + n)
			if got := log.count(); got != n {
				t.Fatalf("%d datagrams delivered after Close", got-n)
			}
		})
	}
}

// TestSendBatchContract: every transport takes a batch of datagrams with
// mixed scopes and delivers the ones in scope in batch order; the
// in-process fabrics deliver each as a batch of one and filter the
// out-of-scope ones. Once the sender is closed, SendBatch returns
// ErrClosed.
func TestSendBatchContract(t *testing.T) {
	batch := []transport.Datagram{
		{Data: []byte("scoped-0"), Scope: 15},
		{Data: []byte("local-1"), Scope: 1},
		{Data: []byte("scoped-2"), Scope: 127},
		{Data: []byte("scoped-3"), Scope: 15},
		{Data: []byte("local-4"), Scope: 1},
		{Data: []byte("scoped-5"), Scope: 63},
	}
	for _, f := range fabrics() {
		t.Run(f.name, func(t *testing.T) {
			tx, rx, settle := f.open(t)
			log := &batchLog{}
			rx.Subscribe(log.handle)
			if err := tx.SendBatch(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, d := range batch {
				if d.Scope > 1 || !f.inProcess {
					want = append(want, string(d.Data))
				}
			}
			settle(len(want))
			deadline := time.Now().Add(5 * time.Second)
			for log.count() < len(want) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			log.mu.Lock()
			if fmt.Sprint(log.payloads) != fmt.Sprint(want) {
				t.Errorf("delivered %q, want %q", log.payloads, want)
			}
			if f.inProcess {
				for _, size := range log.sizes {
					if size != 1 {
						t.Errorf("handler batch sizes %v, want every datagram on its own", log.sizes)
						break
					}
				}
			}
			log.mu.Unlock()

			if err := tx.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tx.SendBatch(context.Background(), batch); !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("SendBatch on a closed transport = %v, want ErrClosed", err)
			}
		})
	}
}
