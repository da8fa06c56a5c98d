package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/stats"
)

// DefaultSAPGroup and DefaultSAPPort are the well-known SAP rendezvous
// (224.2.127.254:9875).
var DefaultSAPGroup = netip.MustParseAddr("224.2.127.254")

const DefaultSAPPort = 9875

// maxDatagram is the largest SAP datagram we accept by default; RFC 2974
// recommends keeping announcements under 1 kB but tolerates up to the UDP
// maximum.
const maxDatagram = 64 * 1024

// minDatagram is the smallest datagram that can possibly carry a SAP
// packet (the 4-byte fixed header). Anything shorter is junk the parser
// cannot even classify, so the read loop quarantines it.
const minDatagram = 4

// Read-loop error back-off: start at readBackoffMin, double per
// consecutive failure up to readBackoffMax, and spread retries with
// ±readBackoffJitter so a fleet of daemons hitting the same kernel error
// (interface down, buffer exhaustion) does not retry in lockstep.
const (
	readBackoffMin    = 10 * time.Millisecond
	readBackoffMax    = 2 * time.Second
	readBackoffJitter = 0.25
)

// rebindAfterErrors is how many consecutive read failures the loop
// tolerates before concluding the socket itself is dead and attempting a
// rebind (immediately on net.ErrClosed — someone pulled the socket out
// from under us — since no amount of backing off revives that).
const rebindAfterErrors = 8

// UDPConfig parameterises a UDP transport.
type UDPConfig struct {
	// Group is the multicast group to join and send to; zero means the
	// default SAP group.
	Group netip.Addr
	// Port is the UDP port; 0 means the default SAP port.
	Port uint16
	// Peers, when non-empty, switches the transport to unicast fan-out:
	// packets are sent to each peer directly instead of the group. This
	// covers hosts and CI environments without multicast routing; scope
	// TTLs are carried in-band by SAP semantics rather than enforced by
	// routers in that mode.
	Peers []netip.AddrPort
	// ListenAddr is the local bind address for unicast mode ("" =
	// 127.0.0.1 with an ephemeral port).
	ListenAddr string
	// MaxPacket caps the accepted datagram size (0 = 64 kB). Datagrams
	// that arrive larger are quarantined: dropped and counted in
	// Metrics().Oversized rather than handed truncated to the parser.
	MaxPacket int
	// Obs, when non-nil, registers the read loop's quarantine counters
	// (udp_received_total, udp_oversized_total, udp_runts_total,
	// udp_read_errors_total) as registry views over the same atomics
	// Metrics() reads; the socket hot path is unchanged.
	Obs *obs.Registry
}

// UDPMetrics counts the read loop's quarantine and error decisions.
// Oversized and runt datagrams are the transport-level malformed inputs;
// undecodable SAP payloads are counted one layer up by the directory.
type UDPMetrics struct {
	Received    uint64 // datagrams accepted and handed to the handler layer
	Oversized   uint64 // datagrams larger than MaxPacket, quarantined
	Runts       uint64 // datagrams too short for a SAP header, quarantined
	ReadErrors  uint64 // socket read failures (each backed off before retry)
	ReadBatches uint64 // ReadBatch calls that returned datagrams (≈ receive syscalls)
	Rebinds     uint64 // socket rebinds after persistent read failures
}

// udpIO pairs a socket with its platform batch reader/writer. The pair
// is swapped atomically on rebind, so the read loop and senders always
// agree on which generation of socket they are using.
type udpIO struct {
	conn *net.UDPConn
	bc   batchConn // recvmmsg/sendmmsg on linux, singleConn elsewhere
}

// UDPTransport sends and receives SAP datagrams over real sockets.
type UDPTransport struct {
	io     atomic.Pointer[udpIO]        // current socket generation
	mkConn func() (*net.UDPConn, error) // reopens the socket at the same address/group
	group  *net.UDPAddr                 // nil in unicast mode
	peers  []netip.AddrPort
	local  netip.AddrPort
	maxPkt int

	received    atomic.Uint64
	oversized   atomic.Uint64
	runts       atomic.Uint64
	readErrors  atomic.Uint64
	readBatches atomic.Uint64
	rebinds     atomic.Uint64

	// Drain state, written once by DrainClose and read by the loop with
	// atomics so the hot path never takes a lock for it.
	draining   atomic.Bool
	drainQuiet atomic.Int64 // quiet window, ns
	drainStop  atomic.Int64 // hard deadline, unix ns

	// handler is looked up lock-free once per batch; the mutex below only
	// guards the close handshake, never the per-datagram path.
	handler atomic.Pointer[Handler]
	// rxBatch is the readLoop's scratch slice for the handler's batch,
	// reused across syscalls (the Handler contract lends the slice for the
	// call only).
	rxBatch []Message
	// batchSizes, when observability is enabled, records how many
	// datagrams each receive syscall retired.
	batchSizes atomic.Pointer[obs.Histogram]

	mu       sync.Mutex
	closed   bool
	done     chan struct{}
	loopDone chan struct{} // closed when readLoop exits (drain or close)
}

var _ Transport = (*UDPTransport)(nil)

// NewUDP opens a UDP transport. With Peers set it uses unicast fan-out;
// otherwise it joins the multicast group (which requires a multicast-
// capable interface and may fail in restricted environments).
func NewUDP(cfg UDPConfig) (*UDPTransport, error) {
	t, err := func() (*UDPTransport, error) {
		if len(cfg.Peers) > 0 {
			return newUnicastUDP(cfg)
		}
		return newMulticastUDP(cfg)
	}()
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		if err := t.registerObs(cfg.Obs); err != nil {
			_ = t.Close() // registration failed before the transport was shared
			return nil, err
		}
	}
	return t, nil
}

// registerObs exposes the read-loop counters as registry views.
func (t *UDPTransport) registerObs(r *obs.Registry) error {
	views := []struct {
		name, help string
		src        *atomic.Uint64
	}{
		{"udp_received_total", "datagrams accepted and handed to the handler layer", &t.received},
		{"udp_oversized_total", "datagrams larger than MaxPacket, quarantined", &t.oversized},
		{"udp_runts_total", "datagrams too short for a SAP header, quarantined", &t.runts},
		{"udp_read_errors_total", "socket read failures, each backed off before retry", &t.readErrors},
		{"udp_read_batches_total", "receive syscalls that returned datagrams (batched reads)", &t.readBatches},
		{"udp_rebind_total", "socket rebinds after persistent read failures", &t.rebinds},
	}
	for _, v := range views {
		if err := r.CounterFunc(v.name, v.help, v.src.Load); err != nil {
			return fmt.Errorf("transport: %w", err)
		}
	}
	// Syscalls saved by batching: datagrams delivered minus kernel
	// crossings used to deliver them (zero on the portable 1:1 fallback).
	err := r.CounterFunc("udp_batch_syscalls_saved_total",
		"receive syscalls avoided by recvmmsg batching (received - read batches)",
		func() uint64 {
			rcv, batches := t.received.Load(), t.readBatches.Load()
			if rcv <= batches {
				return 0
			}
			return rcv - batches
		})
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	// Per-syscall batch size distribution; bounds cover 1..readBatchSize.
	hist, err := r.Histogram("udp_read_batch_size",
		"datagrams retired per receive syscall",
		[]int64{1, 2, 4, 8, 16, 32})
	if err != nil {
		return fmt.Errorf("transport: %w", err)
	}
	t.batchSizes.Store(hist)
	return nil
}

func maxPacket(cfg UDPConfig) int {
	if cfg.MaxPacket > 0 {
		return cfg.MaxPacket
	}
	return maxDatagram
}

func newUnicastUDP(cfg UDPConfig) (*UDPTransport, error) {
	listen := cfg.ListenAddr
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	addr, err := net.ResolveUDPAddr("udp4", listen)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	t := &UDPTransport{
		peers:  append([]netip.AddrPort(nil), cfg.Peers...),
		maxPkt: maxPacket(cfg),
		done:   make(chan struct{}),
	}
	t.initIO(conn)
	t.mkConn = func() (*net.UDPConn, error) {
		// Rebind to the resolved address (the ephemeral port, if one was
		// assigned, is now pinned) so peers keep reaching us.
		return net.ListenUDP("udp4", net.UDPAddrFromAddrPort(t.local))
	}
	go t.readLoop()
	return t, nil
}

// initIO records the bound address and sets up the platform batchConn.
func (t *UDPTransport) initIO(conn *net.UDPConn) {
	t.local = conn.LocalAddr().(*net.UDPAddr).AddrPort()
	t.loopDone = make(chan struct{})
	t.io.Store(&udpIO{conn: conn, bc: newBatchConnFn(conn)})
}

// newBatchConnFn is the batchConn constructor, a variable so the
// conformance tests and benchmarks can pin a transport to the portable
// singleConn path and compare it against the platform default.
var newBatchConnFn = newBatchConn

func newMulticastUDP(cfg UDPConfig) (*UDPTransport, error) {
	group := cfg.Group
	if !group.IsValid() {
		group = DefaultSAPGroup
	}
	if !mcast.IsMulticast(group) {
		return nil, fmt.Errorf("transport: %s is not a multicast group", group)
	}
	port := cfg.Port
	if port == 0 {
		port = DefaultSAPPort
	}
	gaddr := &net.UDPAddr{IP: group.AsSlice(), Port: int(port)}
	conn, err := net.ListenMulticastUDP("udp4", nil, gaddr)
	if err != nil {
		return nil, fmt.Errorf("transport: join %s: %w", gaddr, err)
	}
	t := &UDPTransport{
		group:  gaddr,
		maxPkt: maxPacket(cfg),
		done:   make(chan struct{}),
	}
	t.initIO(conn)
	t.mkConn = func() (*net.UDPConn, error) {
		// Rejoining the group re-subscribes the fresh socket via IGMP.
		return net.ListenMulticastUDP("udp4", nil, gaddr)
	}
	go t.readLoop()
	return t, nil
}

// applyTTL sets the multicast TTL sockopt for the next send; in unicast
// mode the TTL is advisory (carried in-band by SAP semantics) and this
// is a no-op.
func (t *UDPTransport) applyTTL(conn *net.UDPConn, ttl int) error {
	if t.group == nil {
		return nil
	}
	return setMulticastTTL(conn, ttl)
}

// readLoop drains the socket through the batchConn: one blocking call
// retires up to readBatchSize datagrams (a single recvmmsg on linux),
// and the accepted ones go to the handler in one call, each in the ring
// slot it was read into, with no copy. The ring is allocated once and
// read into again in place: this goroutine is the only reader and calls
// the handler synchronously, so the next ReadBatch cannot start until the
// handler has returned — which is exactly how long Message.Data is on
// loan. The loop body takes no locks: the handler pointer is an atomic
// load once per batch, and all counters are atomics.
func (t *UDPTransport) readLoop() {
	defer close(t.loopDone)
	slots := make([]rxSlot, readBatchSize)
	for i := range slots {
		// One spare byte past the cap distinguishes "exactly MaxPacket"
		// from "kernel truncated something larger".
		slots[i].buf = make([]byte, t.maxPkt+1)
	}
	// The jitter source is deterministic (seeded from the local port) per
	// the detrand rule; jitter only needs to decorrelate daemons, and
	// distinct sockets get distinct ports, hence distinct streams.
	rng := stats.NewRNG(uint64(t.local.Port()) + 1)
	backoff := time.Duration(0)
	errRun := 0
	for {
		cur := t.io.Load()
		n, err := cur.bc.ReadBatch(slots)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				if t.draining.Load() {
					// Every deadline armed during a drain encodes "quiet
					// window elapsed" (clamped to the hard stop), so a
					// timeout here means the socket went silent: done.
					return
				}
				continue
			}
			// Persistent errors (interface loss, ENOBUFS storms) back off
			// exponentially with jitter instead of spinning at a fixed
			// 10 ms; any successful read resets the schedule. A closed
			// socket never recovers by waiting — rebind immediately —
			// and a long enough error run earns the same treatment.
			t.readErrors.Add(1)
			errRun++
			if errors.Is(err, net.ErrClosed) || errRun >= rebindAfterErrors {
				if t.rebind(cur) {
					errRun, backoff = 0, 0
					continue
				}
			}
			backoff = nextReadBackoff(backoff, rng)
			time.Sleep(backoff)
			continue
		}
		errRun, backoff = 0, 0
		t.armDrainDeadline(cur)
		t.readBatches.Add(1)
		if hist := t.batchSizes.Load(); hist != nil {
			hist.Observe(int64(n))
		}
		h := t.handler.Load()
		t.rxBatch = t.rxBatch[:0]
		for i := 0; i < n; i++ {
			s := &slots[i]
			switch {
			case s.n > t.maxPkt:
				t.oversized.Add(1)
				continue
			case s.n < minDatagram:
				t.runts.Add(1)
				continue
			}
			t.received.Add(1)
			t.rxBatch = append(t.rxBatch, Message{From: s.from, Data: s.buf[:s.n]})
		}
		if h != nil && len(t.rxBatch) > 0 {
			(*h)(t.rxBatch)
		}
	}
}

// rebind replaces a dead socket with a fresh one bound to the same
// address (rejoining the group in multicast mode) and swaps it in
// atomically. It refuses during drain or after close, and only swaps if
// prev is still the current generation, so a raced rebind cannot strand
// a live socket.
func (t *UDPTransport) rebind(prev *udpIO) bool {
	if t.draining.Load() {
		return false // shutting down; no point resurrecting the socket
	}
	conn, err := t.mkConn()
	if err != nil {
		return false // address still unavailable; the caller backs off
	}
	next := &udpIO{conn: conn, bc: newBatchConnFn(conn)}
	t.mu.Lock()
	if t.closed || t.io.Load() != prev { //mclint:lockscope atomic pointer read; the generation check must be inside mu to pair with Close
		t.mu.Unlock()
		_ = conn.Close() // lost the race; keep whichever socket won
		return false
	}
	t.io.Store(next) //mclint:lockscope atomic pointer write under mu so Close never races a swap and strands a socket
	t.mu.Unlock()
	_ = prev.conn.Close() // usually already dead; closing twice is harmless
	t.rebinds.Add(1)
	return true
}

// armDrainDeadline pushes the drain quiet window out past freshly
// received traffic, clamped to the drain's hard stop, so the loop only
// exits once the socket has gone silent (or the drain budget ran out).
func (t *UDPTransport) armDrainDeadline(cur *udpIO) {
	if !t.draining.Load() {
		return
	}
	next := time.Now().Add(time.Duration(t.drainQuiet.Load())) //mclint:detrand drain deadlines are real socket deadlines; wall time is the boundary here
	if stop := time.Unix(0, t.drainStop.Load()); next.After(stop) {
		next = stop
	}
	_ = cur.conn.SetReadDeadline(next) // best effort; Close still bounds the drain
}

// DrainClose shuts the receive path down gracefully: the read loop stays
// alive until quiet has elapsed with no datagrams — so a tail burst
// already queued in the kernel's socket buffer still reaches the handler
// — bounded by max overall, then the transport is closed. Safe to call
// concurrently with Close; either way the transport ends closed.
func (t *UDPTransport) DrainClose(quiet, max time.Duration) error {
	if quiet <= 0 {
		quiet = 50 * time.Millisecond
	}
	if max < quiet {
		max = quiet
	}
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil
	}
	t.drainQuiet.Store(int64(quiet))
	t.drainStop.Store(time.Now().Add(max).UnixNano()) //mclint:detrand the drain budget bounds a real socket shutdown; wall time is the boundary here
	t.draining.Store(true)
	// Wake a read blocked with no deadline so the quiet window starts now.
	_ = t.io.Load().conn.SetReadDeadline(time.Now().Add(quiet)) //mclint:detrand real socket deadline; wall time is the boundary here
	select {
	case <-t.loopDone:
	case <-time.After(max + quiet + time.Second):
		// The loop missed the deadline (e.g. a rebind raced the drain
		// flag onto a fresh socket); Close below unblocks it regardless.
	}
	return t.Close()
}

// nextReadBackoff doubles cur (starting from readBackoffMin), applies
// ±readBackoffJitter, and clamps to readBackoffMax.
func nextReadBackoff(cur time.Duration, rng *stats.RNG) time.Duration {
	next := cur * 2
	if next < readBackoffMin {
		next = readBackoffMin
	}
	if next > readBackoffMax {
		next = readBackoffMax
	}
	jittered := time.Duration(float64(next) * (1 + readBackoffJitter*(2*rng.Float64()-1)))
	if jittered > readBackoffMax {
		jittered = readBackoffMax
	}
	if jittered < 0 {
		jittered = readBackoffMin
	}
	return jittered
}

// Metrics returns a snapshot of the read loop's counters.
func (t *UDPTransport) Metrics() UDPMetrics {
	return UDPMetrics{
		Received:    t.received.Load(),
		Oversized:   t.oversized.Load(),
		Runts:       t.runts.Load(),
		ReadErrors:  t.readErrors.Load(),
		ReadBatches: t.readBatches.Load(),
		Rebinds:     t.rebinds.Load(),
	}
}

// sendTimeout bounds a send whose ctx carries no deadline of its own: a
// socket that cannot take a datagram in this long is failing, and the
// sender's next announcement interval retries what it lost.
const sendTimeout = 5 * time.Second

// writeDeadline is ctx's deadline, or sendTimeout from now if it has none.
func writeDeadline(ctx context.Context) time.Time {
	if dl, ok := ctx.Deadline(); ok {
		return dl
	}
	return time.Now().Add(sendTimeout) //mclint:detrand a real socket write deadline; wall time is the boundary here
}

// SendBatch implements Transport. The writes are bounded by ctx's
// deadline, or by sendTimeout if it has none. In multicast mode runs of
// same-scope datagrams share one TTL sockopt and go out in a single
// sendmmsg on linux; in unicast mode every datagram fans out to every
// peer in one batch. A datagram (or peer) that fails does not stop the
// rest: every one is attempted and the errors are joined. The data slices
// are not retained.
func (t *UDPTransport) SendBatch(ctx context.Context, batch []Datagram) error {
	if len(batch) == 0 {
		return nil
	}
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return ErrClosed
	}
	cur := t.io.Load()
	if err := cur.conn.SetWriteDeadline(writeDeadline(ctx)); err != nil {
		return fmt.Errorf("transport: set deadline: %w", err)
	}
	defer func() { _ = cur.conn.SetWriteDeadline(time.Time{}) }() // best-effort reset
	if t.group == nil {
		// Unicast fan-out: batch × peers, one error per failed pair.
		pkts := make([]txPkt, 0, len(batch)*len(t.peers))
		for _, d := range batch {
			for _, p := range t.peers {
				pkts = append(pkts, txPkt{data: d.Data, to: p})
			}
		}
		return cur.bc.WriteBatch(pkts)
	}
	group := t.group.AddrPort()
	pkts := make([]txPkt, 0, len(batch))
	var errs []error
	for i, j := 0, 0; i < len(batch); i = j {
		// TTL is a socket option, so a batch can only share a syscall
		// while the scope holds; split at each scope change.
		for j < len(batch) && batch[j].Scope == batch[i].Scope {
			j++
		}
		if err := t.applyTTL(cur.conn, int(batch[i].Scope)); err != nil {
			// This run is not sent; the runs after it are.
			errs = append(errs, fmt.Errorf("transport: set TTL: %w", err))
			continue
		}
		pkts = pkts[:0]
		for _, d := range batch[i:j] {
			pkts = append(pkts, txPkt{data: d.Data, to: group})
		}
		if err := cur.bc.WriteBatch(pkts); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Subscribe implements Transport. The handler is published through an
// atomic pointer; the read loop observes a replacement at its next
// batch boundary.
func (t *UDPTransport) Subscribe(h Handler) {
	if h == nil {
		t.handler.Store(nil)
		return
	}
	t.handler.Store(&h)
}

// SubscribeBatch is Subscribe. It remains only because
// benchmark/udpprobe.go calls it, and leaves with the other shims of
// ROADMAP item 7.
func (t *UDPTransport) SubscribeBatch(h Handler) { t.Subscribe(h) } //mclint:unused pinned by benchmark/udpprobe.go

// LocalAddr is the socket's bound address (in unicast mode, what peers
// send to).
func (t *UDPTransport) LocalAddr() netip.AddrPort { return t.local }

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	t.mu.Unlock()
	t.handler.Store(nil)
	return t.io.Load().conn.Close()
}
