package sim

import (
	"fmt"
	"sort"

	"sessiondir/internal/clash"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// TreeMode selects the multicast routing model for the request–response
// simulation (§3 compares both).
type TreeMode int

const (
	// SharedTree routes all traffic over one core-rooted tree (CBT /
	// sparse-mode PIM).
	SharedTree TreeMode = iota
	// ShortestPathTree routes each sender's traffic over its own
	// shortest-path tree (DVMRP / dense-mode PIM).
	ShortestPathTree
)

// String implements fmt.Stringer.
func (m TreeMode) String() string {
	if m == SharedTree {
		return "shared"
	}
	return "spt"
}

// ReqRespConfig parameterises one request–response run: a requester
// multicasts a request (a clash report solicitation); each group member
// draws a random delay; a member sends its response unless it heard
// another response first.
type ReqRespConfig struct {
	Graph *topology.Graph
	Mode  TreeMode
	// Core is the shared-tree core; ignored for ShortestPathTree. Node 0
	// (the first, most central node of a Doar graph) is the natural choice.
	Core topology.NodeID
	// Requester originates the request.
	Requester topology.NodeID
	// Members are the potential responders (excluding the requester).
	Members []topology.NodeID
	// Delay is the response-delay distribution ([D1, D2] window).
	Delay clash.DelayDist
	// DelayFor, when set, overrides Delay per member — used for the §3.1
	// strategies where announcers respond in an early tier or sites are
	// ranked. A nil return falls back to Delay.
	DelayFor func(node topology.NodeID) clash.DelayDist
	// JitterPerHop adds a uniform [0, J) ms per traversed hop to every
	// packet, modelling queueing (§3's "random per-hop amount on a
	// per-packet basis").
	JitterPerHop float64
}

// ReqRespResult summarises one run.
type ReqRespResult struct {
	Responses        int     // responses actually sent
	FirstSendAt      float64 // ms: earliest response transmission
	FirstArrivalAt   float64 // ms: earliest response arrival at the requester
	MeanResponseRecv float64 // ms: mean arrival time of sent responses at the requester
}

// delayModel abstracts pairwise delivery delay for a run.
type delayModel struct {
	g      *topology.Graph
	mode   TreeMode
	shared *topology.Tree
	spts   map[topology.NodeID]*topology.Tree
	jitter float64
	rng    *stats.RNG
}

func newDelayModel(cfg *ReqRespConfig, rng *stats.RNG) *delayModel {
	m := &delayModel{
		g:      cfg.Graph,
		mode:   cfg.Mode,
		spts:   make(map[topology.NodeID]*topology.Tree),
		jitter: cfg.JitterPerHop,
		rng:    rng,
	}
	m.shared = topology.NewSharedTree(cfg.Graph, cfg.Core)
	return m
}

// base returns the jitter-free delay and hop count from src to dst.
func (m *delayModel) base(src, dst topology.NodeID) (float64, int32) {
	if src == dst {
		return 0, 0
	}
	if m.mode == SharedTree {
		return m.shared.TreeDelay(src, dst), m.shared.TreeHops(src, dst)
	}
	t, ok := m.spts[src]
	if !ok {
		t = topology.NewSPTree(m.g, src)
		m.spts[src] = t
	}
	return t.DelayFromRoot(dst), t.Depth(dst)
}

// packetDelay returns one packet's delivery delay src→dst including
// per-hop jitter (fresh per packet).
func (m *delayModel) packetDelay(src, dst topology.NodeID) float64 {
	d, hops := m.base(src, dst)
	if m.jitter > 0 && hops > 0 {
		d += m.rng.Float64() * m.jitter * float64(hops)
	}
	return d
}

// RunReqResp simulates one request–response exchange.
func RunReqResp(cfg ReqRespConfig, rng *stats.RNG) ReqRespResult {
	if cfg.Graph == nil || cfg.Delay == nil {
		panic("sim: ReqRespConfig.Graph and Delay are required")
	}
	model := newDelayModel(&cfg, rng)

	type member struct {
		node   topology.NodeID
		sendAt float64
	}
	members := make([]member, 0, len(cfg.Members))
	for _, node := range cfg.Members {
		if node == cfg.Requester {
			continue
		}
		recvAt := model.packetDelay(cfg.Requester, node)
		delay := cfg.Delay
		if cfg.DelayFor != nil {
			if d := cfg.DelayFor(node); d != nil {
				delay = d
			}
		}
		members = append(members, member{
			node:   node,
			sendAt: recvAt + delay.Sample(rng),
		})
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].sendAt != members[j].sendAt {
			return members[i].sendAt < members[j].sendAt
		}
		return members[i].node < members[j].node
	})

	type sender struct {
		node   topology.NodeID
		sentAt float64
	}
	var senders []sender
	res := ReqRespResult{FirstSendAt: -1, FirstArrivalAt: -1}
	var recvSum float64

	// An upper bound on any pair delay: twice the deepest root delay on the
	// shared tree (tree paths concatenate two root paths), doubled again as
	// slack for shortest-path-tree delays and per-hop jitter. Any member
	// whose send time is this far past the first response is certainly
	// suppressed — no pair computation needed.
	var maxRootDelay float64
	var maxDepth int32
	for v := 0; v < cfg.Graph.NumNodes(); v++ {
		if d := model.shared.DelayFromRoot(topology.NodeID(v)); d > maxRootDelay {
			maxRootDelay = d
		}
		if h := model.shared.Depth(topology.NodeID(v)); h > maxDepth {
			maxDepth = h
		}
	}
	sureSuppressDelay := 4*maxRootDelay + cfg.JitterPerHop*float64(4*maxDepth)

	for _, mb := range members {
		suppressed := false
		if len(senders) > 0 && mb.sendAt >= senders[0].sentAt+sureSuppressDelay {
			suppressed = true
		} else {
			for _, sd := range senders {
				// An earlier response that arrives before (or exactly at)
				// our send time cancels it.
				if sd.sentAt+model.packetDelay(sd.node, mb.node) <= mb.sendAt {
					suppressed = true
					break
				}
			}
		}
		if suppressed {
			continue
		}
		senders = append(senders, sender{node: mb.node, sentAt: mb.sendAt})
		arrival := mb.sendAt + model.packetDelay(mb.node, cfg.Requester)
		recvSum += arrival
		if res.FirstSendAt < 0 || mb.sendAt < res.FirstSendAt {
			res.FirstSendAt = mb.sendAt
		}
		if res.FirstArrivalAt < 0 || arrival < res.FirstArrivalAt {
			res.FirstArrivalAt = arrival
		}
	}
	res.Responses = len(senders)
	if res.Responses > 0 {
		res.MeanResponseRecv = recvSum / float64(res.Responses)
	}
	return res
}

// Fig15Point is one datum of the Figures-15/16/19 surfaces.
type Fig15Point struct {
	Mode          TreeMode
	Jitter        bool
	DelayName     string
	D2Millis      float64
	GroupSize     int
	MeanResponses float64
	MeanFirstMs   float64 // mean delay of first response arrival
	MaxFirstMs    float64
	Trials        int
}

// String renders a point as a table row.
func (p Fig15Point) String() string {
	return fmt.Sprintf("%-6s jitter=%-5v %-11s D2=%-9.0f n=%-6d responses=%8.2f first=%8.1fms max=%8.1fms",
		p.Mode, p.Jitter, p.DelayName, p.D2Millis, p.GroupSize, p.MeanResponses, p.MeanFirstMs, p.MaxFirstMs)
}

// Fig15Config drives the request–response sweeps.
type Fig15Config struct {
	// Graphs maps group size → topology (the group is all nodes).
	GroupSizes []int
	D2Millis   []float64
	D1Millis   float64
	Mode       TreeMode
	Jitter     bool    // per-hop queueing jitter on/off
	JitterMs   float64 // per-hop jitter bound; 0 means 2 ms
	Exp        bool    // exponential (Fig 18/19) vs uniform delay
	RTTMillis  float64 // r for the exponential distribution
	Trials     int
	Seed       uint64
}

// RunFig15 generates Doar topologies of each requested size and sweeps the
// D2 window, reporting mean response counts and first-response delays.
func RunFig15(cfg Fig15Config) ([]Fig15Point, error) {
	if cfg.Trials < 1 {
		cfg.Trials = 3
	}
	if cfg.RTTMillis <= 0 {
		cfg.RTTMillis = 200
	}
	if cfg.JitterMs <= 0 {
		cfg.JitterMs = 2
	}
	root := stats.NewRNG(cfg.Seed)
	var out []Fig15Point
	for _, size := range cfg.GroupSizes {
		g, err := topology.GenerateGrid(topology.GridConfig{
			Nodes:          size,
			RedundantLinks: true,
		}, root.Split())
		if err != nil {
			return nil, err
		}
		members := make([]topology.NodeID, g.NumNodes())
		for i := range members {
			members[i] = topology.NodeID(i)
		}
		for _, d2 := range cfg.D2Millis {
			var delay clash.DelayDist
			if cfg.Exp {
				delay = clash.NewExponentialDelay(cfg.D1Millis, d2, cfg.RTTMillis)
			} else {
				delay = clash.NewUniformDelay(cfg.D1Millis, d2)
			}
			var responses, first stats.Summary
			maxFirst := 0.0
			for trial := 0; trial < cfg.Trials; trial++ {
				rng := root.Split()
				jit := 0.0
				if cfg.Jitter {
					jit = cfg.JitterMs
				}
				r := RunReqResp(ReqRespConfig{
					Graph:        g,
					Mode:         cfg.Mode,
					Core:         0,
					Requester:    topology.NodeID(rng.IntN(g.NumNodes())),
					Members:      members,
					Delay:        delay,
					JitterPerHop: jit,
				}, rng)
				responses.Add(float64(r.Responses))
				if r.FirstArrivalAt >= 0 {
					first.Add(r.FirstArrivalAt)
					if r.FirstArrivalAt > maxFirst {
						maxFirst = r.FirstArrivalAt
					}
				}
			}
			out = append(out, Fig15Point{
				Mode:          cfg.Mode,
				Jitter:        cfg.Jitter,
				DelayName:     delay.Name(),
				D2Millis:      d2,
				GroupSize:     size,
				MeanResponses: responses.Mean(),
				MeanFirstMs:   first.Mean(),
				MaxFirstMs:    maxFirst,
				Trials:        cfg.Trials,
			})
		}
	}
	return out, nil
}
