package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// batchConnImpls enumerates every batchConn implementation buildable on
// this platform: the portable singleConn always, and whatever
// newBatchConn selects (mmsgConn on linux; elsewhere it is singleConn
// again, which keeps the suite meaningful without build-tagged tests).
func batchConnImpls() map[string]func(*net.UDPConn) batchConn {
	return map[string]func(*net.UDPConn) batchConn{
		"portable": func(c *net.UDPConn) batchConn { return &singleConn{conn: c} },
		"platform": newBatchConn,
	}
}

// withBatchConn pins the transport constructor to one batchConn
// implementation for the duration of fn. Tests using it must not run in
// parallel (the hook is package state, read once per NewUDP).
func withBatchConn(t testing.TB, mk func(*net.UDPConn) batchConn, fn func()) {
	t.Helper()
	prev := newBatchConnFn
	newBatchConnFn = mk
	defer func() { newBatchConnFn = prev }()
	fn()
}

// recvRecord is one observed Message, copied out of the ring slot
// before the handler returns, as the loan contract requires of handlers
// that keep bytes.
type recvRecord struct {
	payload string
	from    netip.AddrPort
}

// conformanceRun pushes a fixed datagram mix through a UDPTransport built
// on the given batchConn and returns the accepted messages plus final
// metrics. The mix exercises every quarantine edge: a runt, an exactly-
// max datagram, an oversized one, and ordinary traffic.
func conformanceRun(t *testing.T, mk func(*net.UDPConn) batchConn) ([]recvRecord, UDPMetrics) {
	t.Helper()
	const maxPkt = 1024
	var tr *UDPTransport
	withBatchConn(t, mk, func() {
		var err error
		tr, err = NewUDP(UDPConfig{
			Peers:     []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:9")},
			MaxPacket: maxPkt,
		})
		if err != nil {
			t.Fatalf("NewUDP: %v", err)
		}
	})
	defer tr.Close()

	got := make(chan recvRecord, 64)
	tr.Subscribe(func(ms []Message) {
		for _, m := range ms {
			got <- recvRecord{payload: string(m.Data), from: m.From}
		}
	})

	tx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("sender: %v", err)
	}
	defer tx.Close()
	dst := tr.LocalAddr()

	mk1 := func(n int, fill byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	accepted := [][]byte{
		mk1(minDatagram, 'a'),  // smallest acceptable
		mk1(100, 'b'),          // ordinary
		mk1(maxPkt, 'c'),       // exactly the cap
		[]byte("hello, mbone"), // ordinary, distinct content
	}
	quarantined := [][]byte{
		mk1(minDatagram-1, 'r'), // runt
		mk1(maxPkt+200, 'o'),    // oversized (kernel-truncated past the cap)
	}
	for _, p := range accepted {
		if _, err := tx.WriteToUDPAddrPort(p, dst); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	for _, p := range quarantined {
		if _, err := tx.WriteToUDPAddrPort(p, dst); err != nil {
			t.Fatalf("send: %v", err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		m := tr.Metrics()
		if m.Received == uint64(len(accepted)) && m.Runts == 1 && m.Oversized == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for datagrams: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
	var out []recvRecord
	for len(out) < len(accepted) {
		select {
		case r := <-got:
			out = append(out, r)
		case <-time.After(time.Second):
			t.Fatalf("received counter says %d but only %d messages delivered", len(accepted), len(out))
		}
	}
	return out, tr.Metrics()
}

// TestBatchConnConformance runs the same datagram mix through every
// implementation and requires identical results: same payloads out, same
// sender attribution, same quarantine decisions. This is the build-tag
// seam's contract test — CI on any platform compares the portable
// fallback against whatever the platform default is.
func TestBatchConnConformance(t *testing.T) {
	type outcome struct {
		payloads []string
		metrics  UDPMetrics
	}
	results := map[string]outcome{}
	for name, mk := range batchConnImpls() {
		recs, met := conformanceRun(t, mk)
		o := outcome{metrics: met}
		txPortSeen := map[uint16]bool{}
		for _, r := range recs {
			o.payloads = append(o.payloads, r.payload)
			if !r.from.Addr().Is4() || r.from.Addr().String() != "127.0.0.1" {
				t.Fatalf("%s: message from %s, want loopback sender", name, r.from)
			}
			txPortSeen[r.from.Port()] = true
		}
		if len(txPortSeen) != 1 {
			t.Fatalf("%s: messages attributed to %d source ports, want 1", name, len(txPortSeen))
		}
		sort.Strings(o.payloads)
		results[name] = o
	}
	ref, ok := results["portable"]
	if !ok {
		t.Fatal("portable implementation missing from suite")
	}
	for name, o := range results {
		if fmt.Sprint(o.payloads) != fmt.Sprint(ref.payloads) {
			t.Errorf("%s payloads diverge from portable:\n%q\nvs\n%q", name, o.payloads, ref.payloads)
		}
		if o.metrics.Received != ref.metrics.Received ||
			o.metrics.Runts != ref.metrics.Runts ||
			o.metrics.Oversized != ref.metrics.Oversized {
			t.Errorf("%s quarantine metrics diverge from portable: %+v vs %+v",
				name, o.metrics, ref.metrics)
		}
	}
}

// TestBatchConnDrainsBacklog: the platform implementation must deliver a
// burst larger than one batch completely and in one piece (no loss, no
// duplication) — reading into the same ring again is the code under test.
func TestBatchConnDrainsBacklog(t *testing.T) {
	for name, mk := range batchConnImpls() {
		t.Run(name, func(t *testing.T) {
			var tr *UDPTransport
			withBatchConn(t, mk, func() {
				var err error
				tr, err = NewUDP(UDPConfig{
					Peers:     []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:9")},
					MaxPacket: 2048,
				})
				if err != nil {
					t.Fatalf("NewUDP: %v", err)
				}
			})
			defer tr.Close()

			const burst = 3*readBatchSize + 5 // forces several ring rotations
			seen := make(chan string, burst)
			tr.Subscribe(func(ms []Message) {
				for _, m := range ms {
					seen <- string(m.Data)
				}
			})
			tx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			for i := 0; i < burst; i++ {
				if _, err := tx.WriteToUDPAddrPort([]byte(fmt.Sprintf("dgram-%03d", i)), tr.LocalAddr()); err != nil {
					t.Fatal(err)
				}
			}
			got := map[string]int{}
			for i := 0; i < burst; i++ {
				select {
				case p := <-seen:
					got[p]++
				case <-time.After(5 * time.Second):
					t.Fatalf("only %d of %d burst datagrams arrived", i, burst)
				}
			}
			for p, n := range got {
				if n != 1 {
					t.Fatalf("payload %q delivered %d times", p, n)
				}
			}
		})
	}
}

// TestUDPReadLoopZeroAllocSteadyState pins the receive path's allocation
// claim: after a warm-up batch, receiving a datagram performs zero heap
// allocations across the whole read loop, for both the platform and the
// portable fallback implementations — and a garbage collection between
// bursts changes nothing, because the ring is the loop's own memory and
// not a cache the collector may empty.
func TestUDPReadLoopZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for name, mk := range batchConnImpls() {
		t.Run(name, func(t *testing.T) {
			var tr *UDPTransport
			withBatchConn(t, mk, func() {
				var err error
				tr, err = NewUDP(UDPConfig{
					Peers:     []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:9")},
					MaxPacket: 2048,
				})
				if err != nil {
					t.Fatalf("NewUDP: %v", err)
				}
			})
			defer tr.Close()

			done := make(chan struct{}, 1)
			tr.Subscribe(func([]Message) { done <- struct{}{} })
			tx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			dst := tr.LocalAddr()
			payload := make([]byte, 512)

			// AllocsPerRun counts mallocs process-wide, including the read
			// loop goroutine, which is exactly what we want to pin; its own
			// unmeasured first call is the warm-up batch.
			for burst := 0; burst < 3; burst++ {
				avg := testing.AllocsPerRun(100, func() {
					if _, err := tx.WriteToUDPAddrPort(payload, dst); err != nil {
						t.Fatal(err)
					}
					<-done
				})
				if avg != 0 {
					t.Errorf("%s burst %d: %.2f allocs per datagram, want 0", name, burst, avg)
				}
				runtime.GC()
			}
		})
	}
}

// TestSendBatchMatchesSequentialSend: a batch whose scope changes mid-way
// delivers every datagram, through either batchConn, as the datagrams
// sent one by one would have been.
func TestSendBatchMatchesSequentialSend(t *testing.T) {
	for name, mk := range batchConnImpls() {
		t.Run(name, func(t *testing.T) {
			var rx, txT *UDPTransport
			withBatchConn(t, mk, func() {
				var err error
				rx, err = NewUDP(UDPConfig{
					Peers:     []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:9")},
					MaxPacket: 2048,
				})
				if err != nil {
					t.Fatal(err)
				}
				txT, err = NewUDP(UDPConfig{
					Peers:     []netip.AddrPort{rx.LocalAddr()},
					MaxPacket: 2048,
				})
				if err != nil {
					t.Fatal(err)
				}
			})
			defer rx.Close()
			defer txT.Close()

			var mu sync.Mutex
			var got []string
			gotCh := make(chan struct{}, 32)
			rx.Subscribe(func(ms []Message) {
				for _, m := range ms {
					mu.Lock()
					got = append(got, string(m.Data))
					mu.Unlock()
					gotCh <- struct{}{}
				}
			})

			batch := []Datagram{
				{Data: []byte("pkt-a-ttl16"), Scope: 16},
				{Data: []byte("pkt-b-ttl16"), Scope: 16},
				{Data: []byte("pkt-c-ttl127"), Scope: 127},
				{Data: []byte("pkt-d-ttl16"), Scope: 16},
			}
			if err := txT.SendBatch(t.Context(), batch); err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			for i := 0; i < len(batch); i++ {
				select {
				case <-gotCh:
				case <-time.After(5 * time.Second):
					t.Fatalf("batch datagram %d never arrived", i)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			want := map[string]bool{}
			for _, d := range batch {
				want[string(d.Data)] = true
			}
			for _, p := range got {
				if !want[p] {
					t.Fatalf("unexpected payload %q", p)
				}
			}
			if len(got) != len(batch) {
				t.Fatalf("received %d datagrams, want %d", len(got), len(batch))
			}
		})
	}
}

// TestWriteBatchTriesEveryDatagram: a datagram that cannot go out — one
// larger than any UDP datagram (EMSGSIZE), one to an IPv6 peer of an IPv4
// socket — is reported, naming its destination, and skipped; the
// datagrams after it still go out. In a unicast fan-out the refused one
// may be the first peer of a batch, and stopping there would silence
// every later peer.
func TestWriteBatchTriesEveryDatagram(t *testing.T) {
	for name, mk := range batchConnImpls() {
		t.Run(name, func(t *testing.T) {
			rx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer rx.Close()
			tx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				t.Fatal(err)
			}
			defer tx.Close()
			to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
			v6 := netip.MustParseAddrPort("[::1]:9")

			err = mk(tx).WriteBatch([]txPkt{
				{data: []byte("first"), to: to},
				{data: make([]byte, 70000), to: to},
				{data: []byte("v6"), to: v6},
				{data: []byte("third"), to: to},
			})
			if !errors.Is(err, syscall.EMSGSIZE) || !strings.Contains(err.Error(), "send to "+to.String()) {
				t.Fatalf("WriteBatch error = %v, want EMSGSIZE for the send to %s", err, to)
			}
			if !strings.Contains(err.Error(), "send to "+v6.String()) {
				t.Fatalf("WriteBatch error = %v, want one for the send to %s", err, v6)
			}
			buf := make([]byte, 64)
			for _, want := range []string{"first", "third"} {
				if err := rx.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
					t.Fatal(err)
				}
				n, err := rx.Read(buf)
				if err != nil {
					t.Fatalf("waiting for %q: %v", want, err)
				}
				if got := string(buf[:n]); got != want {
					t.Fatalf("received %q, want %q", got, want)
				}
			}
		})
	}
}

// failFirstConn is a batchConn whose first WriteBatch fails and takes
// the socket down with it, so every TTL sockopt after it fails too.
type failFirstConn struct {
	singleConn
	failed bool
}

var errFirstWrite = errors.New("first WriteBatch failed")

func (c *failFirstConn) WriteBatch([]txPkt) error {
	if c.failed {
		return nil
	}
	c.failed = true
	_ = c.conn.Close()
	return errFirstWrite
}

// TestSendBatchJoinsErrorsAcrossScopeRuns: a TTL failure on a later
// same-scope run must neither discard the errors earlier runs collected
// nor stop the runs after it — the batch reports what k Sends would.
func TestSendBatchJoinsErrorsAcrossScopeRuns(t *testing.T) {
	var tr *UDPTransport
	withBatchConn(t, func(c *net.UDPConn) batchConn {
		return &failFirstConn{singleConn: singleConn{conn: c}}
	}, func() {
		var err error
		tr, err = NewUDP(UDPConfig{Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:9")}})
		if err != nil {
			t.Fatalf("NewUDP: %v", err)
		}
	})
	defer tr.Close()
	// Multicast mode from here on (the read loop never looks at group):
	// SendBatch splits the batch by scope and sets the TTL once per run.
	tr.group = &net.UDPAddr{IP: net.IPv4(239, 255, 77, 77), Port: 9}

	err := tr.SendBatch(t.Context(), []Datagram{
		{Data: []byte("run-1"), Scope: 16},
		{Data: []byte("run-2"), Scope: 127},
		{Data: []byte("run-3"), Scope: 16},
	})
	if !errors.Is(err, errFirstWrite) {
		t.Fatalf("the first run's write error was dropped: %v", err)
	}
	if n := strings.Count(err.Error(), "set TTL"); n != 2 {
		t.Fatalf("%d TTL errors joined, want one for each of the two later runs: %v", n, err)
	}
}

// --- Receive-path micro-benchmark (mirrored into BENCH.json) ---

// BenchmarkUDPBatchThroughput is the shipping batched zero-copy path.
func BenchmarkUDPBatchThroughput(b *testing.B) {
	const perRound = 64
	rounds := (b.N + perRound - 1) / perRound
	res, err := RecvThroughput(rounds, perRound, 64)
	if err != nil {
		b.Fatal(err)
	}
	if res.Datagrams == 0 {
		b.Fatal("no datagrams drained")
	}
	b.ReportMetric(res.NsPerDatagram(), "ns/dgram")
	b.ReportMetric(res.DatagramsPerSec(), "dgram/s")
	b.ReportMetric(res.BatchDepth(), "dgram/syscall")
	b.ReportMetric(res.AllocsPerDatagram, "allocs/dgram")
}
