package des

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
	"sessiondir/internal/transport"
)

// Net simulates scoped multicast over a topology and is the one
// in-process faulty fabric: a packet sent from an attached node with TTL
// t is offered to every other attached node inside Reach(sender, t), and
// each receiver draws its own fault.Fate for it — dropped, duplicated,
// one bit flipped, delayed — before it arrives after the shortest-path
// delay plus whatever delay the fate added. Every receiver missing a
// different subset is the tail-loss regime of the paper's §2.3.
//
// A delivery is an ordinary engine event, so a delayed packet needs no
// queue of its own and reordering is just two events whose times crossed.
type Net struct {
	engine *Engine
	graph  *topology.Graph
	cache  *topology.ReachCache
	// profile is what SetProfile last installed; an endpoint attached
	// later starts with it.
	profile fault.Profile
	// rng is the network's single stream: every fate is drawn from it in
	// delivery order (sends in engine order, receivers in ascending
	// node). One stream, not one per link: the engine is single-threaded,
	// so nothing is gained by splitting it, and a loss-only profile draws
	// exactly one Bool per in-scope receiver — what the resolution and
	// discovery experiments were recorded on.
	rng *stats.RNG
	// eps is the endpoint attached at each node, nil where none is. A
	// datagram visits the nodes of its reach set in ascending NodeID — the
	// delivery order every fate draw (and every same-timestamp event
	// sequence number) follows, so seed replay holds.
	eps []*Endpoint
	// trees[v] is node v's shortest-path tree, built on v's first send: a
	// datagram from v reaches each receiver after the tree's delay to it.
	trees  []*topology.Tree
	filter LinkFilter
}

// LinkFilter scripts partitions and link failures: return false to drop
// all traffic from src's node to dst's node. Applied on top of scope and
// before the fault process, so a severed packet draws nothing and a
// partition never shifts a schedule.
type LinkFilter func(src, dst topology.NodeID) bool

// SetLinkFilter installs (or, with nil, removes) a delivery filter. Takes
// effect for packets sent after the call; packets already in flight are
// delivered (they left the failed region before the cut).
func (n *Net) SetLinkFilter(f LinkFilter) { n.filter = f }

// PartitionGroups is the LinkFilter of a fault.Groups over node ids:
// nodes in different groups — or in no group — are severed.
func PartitionGroups(g fault.Groups) LinkFilter {
	return func(src, dst topology.NodeID) bool {
		return !g.Blocked(int(src), int(dst))
	}
}

// NetConfig parameterises a simulated network.
type NetConfig struct {
	Graph *topology.Graph
	// Profile is the fault process every receiver starts with (the
	// paper's §2.3 uses 2% independent loss).
	Profile fault.Profile
	Seed    uint64
}

// NewNet builds a simulated network on the engine.
func NewNet(engine *Engine, cfg NetConfig) (*Net, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("des: NetConfig.Graph is required")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, fmt.Errorf("des: %w", err)
	}
	return &Net{
		engine:  engine,
		graph:   cfg.Graph,
		cache:   topology.NewReachCache(cfg.Graph),
		profile: cfg.Profile,
		rng:     stats.NewRNG(cfg.Seed ^ 0xde5),
		eps:     make([]*Endpoint, cfg.Graph.NumNodes()),
		trees:   make([]*topology.Tree, cfg.Graph.NumNodes()),
	}, nil
}

// SetProfile swaps the fault profile of every attached receiver, for
// packets sent after the call. Schedules use it to turn faults on and off
// mid-run; each receiver's burst-chain state and counters carry over, and
// packets already delayed still arrive when their events come due.
func (n *Net) SetProfile(p fault.Profile) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("des: %w", err)
	}
	n.profile = p
	for _, ep := range n.eps {
		if ep != nil {
			ep.proc.Profile = p
		}
	}
	return nil
}

// Attach creates the transport endpoint for a node. One endpoint per node.
func (n *Net) Attach(node topology.NodeID) (*Endpoint, error) {
	if int(node) < 0 || int(node) >= n.graph.NumNodes() {
		return nil, fmt.Errorf("des: node %d outside graph", node)
	}
	if n.eps[node] != nil {
		return nil, fmt.Errorf("des: node %d already attached", node)
	}
	ep := &Endpoint{net: n, node: node, proc: fault.Process{Profile: n.profile}}
	n.eps[node] = ep
	return ep, nil
}

// Endpoint implements transport.Transport over the simulated network.
type Endpoint struct {
	net  *Net
	node topology.NodeID
	// proc is this receiver's fault process: the profile in force, its
	// burst-chain state and its counters.
	proc    fault.Process
	handler transport.Handler
	closed  bool
}

var _ transport.Transport = (*Endpoint)(nil)

// Stats returns the fates drawn so far for packets offered to this
// receiver.
func (e *Endpoint) Stats() fault.Stats { return e.proc.Stats } //mclint:unused the chaos tests compare per-agent fault fates with it

// SendBatch implements transport.Transport: scoped, delayed, faulted
// delivery of each datagram in order, each arriving on its own as a batch
// of one. Outbound packets are not faulted as such: a packet's fate is
// decided per receiver, and the fates of one datagram are all drawn before
// the next datagram's.
func (e *Endpoint) SendBatch(_ context.Context, batch []transport.Datagram) error {
	if e.closed {
		return transport.ErrClosed
	}
	for _, d := range batch {
		e.send(d.Data, d.Scope)
	}
	return nil
}

// send offers one datagram to every attached node in scope.
func (e *Endpoint) send(data []byte, scope mcast.TTL) {
	n := e.net
	tree := n.trees[e.node]
	if tree == nil {
		tree = topology.NewSPTree(n.graph, e.node)
		n.trees[e.node] = tree
	}
	for node := range n.cache.Reach(e.node, scope).All() {
		target := n.eps[node]
		if target == nil || node == e.node {
			continue
		}
		if n.filter != nil && !n.filter(e.node, node) {
			continue // scripted partition or link failure
		}
		fate := target.proc.Next(n.rng, len(data))
		if fate.Drop {
			continue // lost on the way to this receiver
		}
		// Each delivery gets its own copy, poisoned once it has been handled.
		var cp []byte
		if fate.CorruptBit >= 0 {
			cp = fault.Flip(data, fate.CorruptBit)
		} else {
			cp = bytes.Clone(data)
		}
		path := time.Duration(tree.DelayFromRoot(node) * float64(time.Millisecond))
		target.deliverAfter(path+fate.Delay, cp)
		if fate.Dup {
			target.deliverAfter(path+fate.DupDelay, bytes.Clone(cp))
		}
	}
}

// deliverAfter schedules one arrival of data, which it owns, as a batch
// of one. A receiver closed while the packet is in flight gets nothing.
func (e *Endpoint) deliverAfter(d time.Duration, data []byte) {
	e.net.engine.After(d, func() { e.deliver(data) })
}

// Deliver hands the handler a copy of data now, as a batch of one: a
// datagram from outside the fabric, which neither scope nor faults nor
// partitions touch. A closed or unsubscribed endpoint hears nothing.
func (e *Endpoint) Deliver(data []byte) { e.deliver(bytes.Clone(data)) }

// deliver hands the handler data, which it owns. The bytes are overwritten
// as soon as the handler returns: Message.Data is valid for the call only,
// and a handler that kept an alias reads garbage in every seeded run
// instead of some time later on a real socket's reused ring.
func (e *Endpoint) deliver(data []byte) {
	if e.closed || e.handler == nil {
		return
	}
	e.handler([]transport.Message{{Data: data}})
	transport.Poison(data)
}

// Subscribe implements transport.Transport.
func (e *Endpoint) Subscribe(h transport.Handler) { e.handler = h }

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.closed = true
	e.handler = nil
	if e.net.eps[e.node] == e {
		e.net.eps[e.node] = nil
	}
	return nil
}
