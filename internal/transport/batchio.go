package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
)

// Batched datagram I/O.
//
// batchConn is the seam between UDPTransport's read loop and the kernel:
// one blocking call that may return several datagrams. On Linux it is
// backed by recvmmsg/sendmmsg (batchio_linux.go), draining everything the
// socket has queued in a single syscall; everywhere else singleConn
// degrades to one datagram per call via the alloc-free AddrPort read
// path, which is exactly the pre-batching behaviour. The conformance
// suite (batchio_test.go) runs the same datagram sequences through every
// available implementation and requires identical Messages out, so the
// build-tag seam cannot drift.

// readBatchSize is the receive ring depth: the most datagrams one
// ReadBatch call may return, and so the most one recvmmsg syscall can
// retire. 32 comfortably covers a SAP announcement burst while keeping
// the preallocated ring under 2 MB at the 64 kB default datagram cap.
const readBatchSize = 32

// rxSlot is one ring entry: the slot's own full-length buffer, read into
// in place by every ReadBatch, plus the per-datagram results of the last
// call that filled it.
type rxSlot struct {
	buf  []byte // allocated once by the ring's owner, always full length
	n    int    // bytes received
	from netip.AddrPort
}

// txPkt is one outbound datagram with its resolved destination (scope
// handling — TTL sockopts, peer fan-out — happens above this layer).
type txPkt struct {
	data []byte
	to   netip.AddrPort
}

// batchConn reads and writes datagrams in batches over one UDP socket.
// ReadBatch is owned by a single goroutine (the transport read loop);
// WriteBatch may be called concurrently with it but not with itself.
type batchConn interface {
	// ReadBatch blocks until at least one datagram is available, fills
	// slots[0..m) — reading each datagram into slots[i].buf at full
	// length and recording its size and source — and returns m. It never
	// blocks waiting for a second datagram: whatever is queued beyond the
	// first is taken only if it is already there. Deadline and close
	// errors surface exactly as they do from ReadFromUDP.
	ReadBatch(slots []rxSlot) (int, error)
	// WriteBatch transmits every packet, joining per-packet errors, as if
	// each were sent individually in order.
	WriteBatch(pkts []txPkt) error
}

// singleConn is the portable batchConn: one datagram per call, using the
// netip read/write variants so the steady-state loop stays alloc-free.
type singleConn struct {
	conn *net.UDPConn
}

func (c *singleConn) ReadBatch(slots []rxSlot) (int, error) {
	n, from, err := c.conn.ReadFromUDPAddrPort(slots[0].buf)
	if err != nil {
		return 0, err
	}
	slots[0].n, slots[0].from = n, from
	return 1, nil
}

func (c *singleConn) WriteBatch(pkts []txPkt) error {
	var errs []error
	for _, p := range pkts {
		if _, err := c.conn.WriteToUDPAddrPort(p.data, p.to); err != nil {
			errs = append(errs, fmt.Errorf("transport: send to %s: %w", p.to, err))
		}
	}
	return errors.Join(errs...)
}
