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
// shims of ROADMAP item 7.
func (m *Message) Release() {} //mclint:unused pinned by benchmark/udpprobe.go

// Handler consumes received messages a batch at a time: every datagram
// one receive syscall retired on UDP, a batch of one on the in-process
// fabrics. Batches are never empty and keep arrival order. Handlers are
// invoked sequentially per transport and must not block for long.
// Neither the slice nor any Message's Data outlives the call: both are
// the transport's, used again once the handler returns (DESIGN.md §13).
type Handler func([]Message)

// Datagram is one outbound packet: its bytes and its scope TTL.
type Datagram struct {
	Data  []byte
	Scope mcast.TTL
}

// BatchSender is the send contract. SendBatch transmits every datagram of
// batch, in order, each with its own scope, and joins the per-datagram
// errors: one datagram that cannot go out does not stop the ones after it.
// The batch and its Data are borrowed for the call; nothing is retained
// once it returns (DESIGN.md §13). A batch of one is a single send.
type BatchSender interface {
	SendBatch(ctx context.Context, batch []Datagram) error
}

// Transport carries SAP datagrams between directory agents: a batch out
// through SendBatch, batches in through the subscribed Handler.
type Transport interface {
	BatchSender
	// Subscribe registers the receive handler. Only one handler may be
	// active; Subscribe replaces any previous one. Pass nil to stop
	// receiving.
	Subscribe(h Handler)
	// Close releases resources; SendBatch returns ErrClosed afterwards.
	Close() error
}

// ErrClosed is returned by SendBatch on a closed transport.
var ErrClosed = errors.New("transport: closed")
