package transport

import (
	"context"
	"sync"

	"sessiondir/internal/mcast"
)

// Bus is an in-process multicast fabric: every datagram an endpoint sends
// is delivered to every other endpoint whose Policy admits it. It
// models a lossless, ordered, zero-delay network unless a Policy says
// otherwise — exactly what unit and integration tests want, and a
// convenient substrate for the examples.
type Bus struct {
	mu sync.Mutex
	// endpoints are the attached endpoints in ascending ID order. The
	// slice is never written once published: attach and detach replace it
	// with a copy, so a sender reads the one it took under mu without it.
	endpoints []*BusEndpoint
	nextID    int
	policy    Policy
}

// Policy decides per-packet delivery between two endpoints. Returning
// deliver=false drops the packet (out-of-scope or severed); loss, delay
// and the other packet faults are not modelled here (des.Net is the
// faulty in-process fabric).
type Policy func(from, to int, scope mcast.TTL) (deliver bool)

// NewBus returns an empty bus delivering everything everywhere.
func NewBus() *Bus {
	return &Bus{}
}

// SetPolicy installs a delivery policy (nil restores deliver-all).
func (b *Bus) SetPolicy(p Policy) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.policy = p
}

// Endpoint creates a new attached endpoint.
func (b *Bus) Endpoint() *BusEndpoint {
	b.mu.Lock()
	defer b.mu.Unlock()
	ep := &BusEndpoint{bus: b, id: b.nextID}
	b.nextID++
	// IDs only grow, so appending keeps the order.
	b.endpoints = append(b.endpoints[:len(b.endpoints):len(b.endpoints)], ep)
	return ep
}

// BusEndpoint is one attachment point on a Bus.
type BusEndpoint struct {
	bus *Bus
	id  int

	mu      sync.Mutex
	handler Handler
	closed  bool
	// batch is the batch of one a delivery hands the handler, unless a
	// delivery to this endpoint is already under way (busy): a handler's
	// own sends may deliver back to it.
	batch [1]Message
	busy  bool
}

var _ Transport = (*BusEndpoint)(nil)

// ID returns the endpoint's bus-unique id (useful in Policy functions).
func (e *BusEndpoint) ID() int { return e.id } //mclint:unused the root package's directory tests write bus policies over endpoint ids with it

// SendBatch implements Transport. Each datagram in turn is delivered, as
// a batch of one, to every other endpoint the Policy admits it to, over
// the bus as it stood when the call began (a recipient closed since gets
// nothing). Delivery is synchronous — all recipient handlers for one
// datagram run before the next is offered, and all before SendBatch
// returns — which makes tests deterministic. The sender does not receive
// its own packets (matching IP_MULTICAST_LOOP disabled, which is how the
// agents are wired).
func (e *BusEndpoint) SendBatch(_ context.Context, batch []Datagram) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}

	// Take the attached endpoints under the lock; run the Policy outside
	// it. A Policy is caller-supplied code — invoking it with bus.mu held
	// would deadlock the moment a policy touches the bus (attaching an
	// endpoint, changing the policy). Delivery is in ascending endpoint-ID
	// order, the order the list keeps: receivers react to what they hear
	// (and draw from seeded RNGs when they do), so delivery order is part
	// of the deterministic-replay contract.
	e.bus.mu.Lock()
	policy, endpoints := e.bus.policy, e.bus.endpoints
	e.bus.mu.Unlock()

	for _, d := range batch {
		for _, r := range endpoints {
			if r == e || policy != nil && !policy(e.id, r.id, d.Scope) {
				continue
			}
			r.deliver(d.Data)
		}
	}
	return nil
}

func (e *BusEndpoint) deliver(data []byte) {
	e.mu.Lock()
	h := e.handler
	if e.closed || h == nil {
		e.mu.Unlock()
		return
	}
	ms := e.batch[:]
	nested := e.busy
	e.busy = true
	e.mu.Unlock()
	if nested {
		ms = make([]Message, 1)
	}
	// Each recipient gets a private copy, in a batch of one, so that it can
	// be poisoned the moment the handler returns: a handler that kept an
	// alias of Data past the call — which UDP's reused ring would corrupt
	// some time later — reads garbage here at once, in every Bus-driven
	// test.
	cp := make([]byte, len(data))
	copy(cp, data)
	ms[0] = Message{Data: cp}
	h(ms)
	Poison(cp)
	ms[0] = Message{}
	if !nested {
		e.mu.Lock()
		e.busy = false
		e.mu.Unlock()
	}
}

// Poison overwrites b, a delivered Message.Data whose handler has
// returned, with 0xDB. The in-process fabrics (Bus, des.Net) call it so
// the loan contract is checked wherever they carry traffic.
func Poison(b []byte) {
	for i := range b {
		b[i] = 0xDB
	}
}

// Subscribe implements Transport.
func (e *BusEndpoint) Subscribe(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Close implements Transport.
func (e *BusEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.handler = nil
	e.mu.Unlock()

	e.bus.mu.Lock()
	kept := make([]*BusEndpoint, 0, len(e.bus.endpoints))
	for _, r := range e.bus.endpoints {
		if r != e {
			kept = append(kept, r)
		}
	}
	e.bus.endpoints = kept
	e.bus.mu.Unlock()
	return nil
}
