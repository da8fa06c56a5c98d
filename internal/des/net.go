package des

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
	"sessiondir/internal/transport"
)

// Net simulates scoped multicast over a topology: a packet sent from an
// attached node with TTL t is delivered to every other attached node
// inside Reach(sender, t), after the shortest-path delay, unless lost
// (independent per-receiver loss, modelling tail loss on the distribution
// tree).
type Net struct {
	engine *Engine
	graph  *topology.Graph
	cache  *topology.ReachCache
	// link is the one loss process every (sender, receiver) pair shares,
	// drawn from the network's single stream rng in delivery order.
	link  fault.Process
	rng   *stats.RNG
	nodes map[topology.NodeID]*Endpoint
	// order is the attached nodes in ascending NodeID — the delivery
	// iteration order. Iterating the map directly would draw loss
	// decisions (and assign same-timestamp event sequence numbers) in
	// randomized map order, breaking seed replay.
	order  []topology.NodeID
	filter LinkFilter
}

// LinkFilter lets tests script partitions and link failures: return false
// to drop all traffic from src's node to dst's node. Applied on top of
// scope and loss.
type LinkFilter func(src, dst topology.NodeID) bool

// SetLinkFilter installs (or, with nil, removes) a delivery filter. Takes
// effect for packets sent after the call; packets already in flight are
// delivered (they left the failed region before the cut).
func (n *Net) SetLinkFilter(f LinkFilter) { n.filter = f }

// Partition is a convenience LinkFilter: communication is allowed only
// within each side of the cut. Membership is decided by the given
// predicate (true = side A).
func Partition(sideA func(topology.NodeID) bool) LinkFilter {
	return func(src, dst topology.NodeID) bool {
		return sideA(src) == sideA(dst)
	}
}

// NetConfig parameterises a simulated network.
type NetConfig struct {
	Graph *topology.Graph
	// Loss is the independent per-receiver packet loss probability
	// (the paper's §2.3 uses 2%).
	Loss float64
	Seed uint64
}

// NewNet builds a simulated network on the engine.
func NewNet(engine *Engine, cfg NetConfig) (*Net, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("des: NetConfig.Graph is required")
	}
	if !(cfg.Loss >= 0 && cfg.Loss < 1) { // written so that NaN fails
		return nil, fmt.Errorf("des: loss %v outside [0,1)", cfg.Loss)
	}
	return &Net{
		engine: engine,
		graph:  cfg.Graph,
		cache:  topology.NewReachCache(cfg.Graph),
		link:   fault.Process{Profile: fault.Profile{Loss: cfg.Loss}},
		rng:    stats.NewRNG(cfg.Seed ^ 0xde5),
		nodes:  make(map[topology.NodeID]*Endpoint),
	}, nil
}

// Attach creates the transport endpoint for a node. One endpoint per node.
func (n *Net) Attach(node topology.NodeID) (*Endpoint, error) {
	if int(node) < 0 || int(node) >= n.graph.NumNodes() {
		return nil, fmt.Errorf("des: node %d outside graph", node)
	}
	if _, dup := n.nodes[node]; dup {
		return nil, fmt.Errorf("des: node %d already attached", node)
	}
	ep := &Endpoint{net: n, node: node}
	n.nodes[node] = ep
	at := sort.Search(len(n.order), func(i int) bool { return n.order[i] >= node })
	n.order = append(n.order, 0)
	copy(n.order[at+1:], n.order[at:])
	n.order[at] = node
	return ep, nil
}

// Endpoint implements transport.Transport over the simulated network.
type Endpoint struct {
	net     *Net
	node    topology.NodeID
	handler transport.Handler
	closed  bool
}

var _ transport.Transport = (*Endpoint)(nil)

// Node returns the endpoint's topology node.
func (e *Endpoint) Node() topology.NodeID { return e.node }

// Send implements transport.Transport: scoped, delayed, lossy delivery.
func (e *Endpoint) Send(_ context.Context, data []byte, scope mcast.TTL) error {
	if e.closed {
		return transport.ErrClosed
	}
	n := e.net
	reach := n.cache.Reach(e.node, scope)
	tree := n.cache.Tree(e.node)
	for _, node := range n.order {
		target := n.nodes[node]
		if target == nil || node == e.node || !reach.Contains(node) {
			continue
		}
		if n.filter != nil && !n.filter(e.node, node) {
			continue // scripted partition or link failure
		}
		if n.link.Next(n.rng, len(data)).Drop {
			continue // lost on the way to this receiver
		}
		delayMs := tree.DelayFromRoot(node)
		cp := make([]byte, len(data))
		copy(cp, data)
		tgt := target
		n.engine.After(time.Duration(delayMs*float64(time.Millisecond)), func() {
			if tgt.closed || tgt.handler == nil {
				return
			}
			tgt.handler(transport.Message{Data: cp})
		})
	}
	return nil
}

// Subscribe implements transport.Transport.
func (e *Endpoint) Subscribe(h transport.Handler) { e.handler = h }

// LocalAddr implements transport.Transport (simulated nodes are unnumbered).
func (e *Endpoint) LocalAddr() netip.AddrPort { return netip.AddrPort{} }

// Close implements transport.Transport.
func (e *Endpoint) Close() error {
	e.closed = true
	e.handler = nil
	delete(e.net.nodes, e.node)
	order := e.net.order
	at := sort.Search(len(order), func(i int) bool { return order[i] >= e.node })
	if at < len(order) && order[at] == e.node {
		e.net.order = append(order[:at], order[at+1:]...)
	}
	return nil
}
