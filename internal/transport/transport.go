// Package transport abstracts how session directory agents exchange SAP
// packets: real UDP multicast (with a unicast fan-out fallback for
// environments without multicast routing), and an in-process bus with
// optional scope filtering for tests and simulations.
package transport

import (
	"context"
	"errors"
	"net/netip"

	"sessiondir/internal/mcast"
)

// Message is one received datagram.
type Message struct {
	// From is the sender's address (zero for in-process transports that
	// don't model addressing).
	From netip.AddrPort
	// Data is the packet contents, on loan for the duration of the
	// handler call: Data (and anything aliasing it, such as a zero-copy
	// SAP decode) is valid until the handler returns, after which the
	// transport reuses the bytes. A handler that keeps bytes copies them.
	Data []byte
}

// Release does nothing: a received datagram is borrowed for the handler
// call, not leased, so there is nothing to hand back. It remains only
// because benchmark/udpprobe.go calls it, and leaves with the other
// shims of ROADMAP item 8.
func (m *Message) Release() {}

// Handler consumes received messages a batch at a time: every datagram
// one receive syscall retired on UDP, a batch of one on the in-process
// fabrics. Batches are never empty and keep arrival order. Handlers are
// invoked sequentially per transport and must not block for long.
// Neither the slice nor any Message's Data outlives the call: both are
// the transport's, used again once the handler returns (DESIGN.md §13).
type Handler func([]Message)

// Datagram is one outbound packet of a batch transmission.
type Datagram struct {
	Data  []byte
	Scope mcast.TTL
}

// BatchSender is implemented by transports that can transmit several
// datagrams per syscall (sendmmsg). Semantics match calling Send for
// each datagram in order; per-datagram errors are joined.
type BatchSender interface {
	SendBatch(ctx context.Context, batch []Datagram) error
}

// SendAll transmits a batch through t's BatchSender fast path when it has
// one (UDP's sendmmsg), falling back to sequential Send calls.
func SendAll(ctx context.Context, t Transport, batch []Datagram) error {
	if bs, ok := t.(BatchSender); ok {
		return bs.SendBatch(ctx, batch)
	}
	var errs []error
	for _, d := range batch {
		if err := t.Send(ctx, d.Data, d.Scope); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Transport carries SAP datagrams between directory agents.
type Transport interface {
	// Send transmits data with the given scope TTL. The data slice is not
	// retained after Send returns.
	Send(ctx context.Context, data []byte, scope mcast.TTL) error
	// Subscribe registers the receive handler. Only one handler may be
	// active; Subscribe replaces any previous one. Pass nil to stop
	// receiving.
	Subscribe(h Handler)
	// LocalAddr identifies this endpoint (zero if not applicable).
	LocalAddr() netip.AddrPort
	// Close releases resources; Send and Subscribe are invalid afterwards.
	Close() error
}

// ErrClosed is returned by Send on a closed transport.
var ErrClosed = errors.New("transport: closed")
