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
// another response first. A packet between two nodes beyond DVMRP infinity
// of each other on the run's tree is never delivered.
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
	MeanResponseRecv float64 // ms: mean arrival time at the requester of the responses that reach it
}

// reqRespNet is what a run needs of its graph alone: the core-rooted
// shared tree, and the delay past the first response after which a member
// is certainly suppressed. RunTrials builds it once for all its trials.
type reqRespNet struct {
	shared            *topology.Tree
	sureSuppressDelay float64
}

func newReqRespNet(cfg *ReqRespConfig) *reqRespNet {
	shared := topology.NewSharedTree(cfg.Graph, cfg.Core)
	// An upper bound on any pair delay: twice the deepest root delay on the
	// shared tree (tree paths concatenate two root paths), doubled again as
	// slack for shortest-path-tree delays and per-hop jitter. Any member
	// whose send time is this far past the first response is certainly
	// suppressed — no pair computation needed.
	var maxRootDelay float64
	var maxDepth int32
	for v := 0; v < cfg.Graph.NumNodes(); v++ {
		if d := shared.DelayFromRoot(topology.NodeID(v)); d > maxRootDelay {
			maxRootDelay = d
		}
		if h := shared.Depth(topology.NodeID(v)); h > maxDepth {
			maxDepth = h
		}
	}
	return &reqRespNet{
		shared:            shared,
		sureSuppressDelay: 4*maxRootDelay + cfg.JitterPerHop*float64(4*maxDepth),
	}
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

func newDelayModel(cfg *ReqRespConfig, net *reqRespNet, rng *stats.RNG) *delayModel {
	return &delayModel{
		g:      cfg.Graph,
		mode:   cfg.Mode,
		shared: net.shared,
		spts:   make(map[topology.NodeID]*topology.Tree),
		jitter: cfg.JitterPerHop,
		rng:    rng,
	}
}

// spt returns src's shortest-path tree, built on first use.
func (m *delayModel) spt(src topology.NodeID) *topology.Tree {
	t, ok := m.spts[src]
	if !ok {
		t = topology.NewSPTree(m.g, src)
		m.spts[src] = t
	}
	return t
}

// reaches reports whether a packet from src is delivered to dst at all:
// dst must lie within DVMRP infinity of src on src's shortest-path tree,
// or both ends within it of the core on the shared tree.
func (m *delayModel) reaches(src, dst topology.NodeID) bool {
	if m.mode == SharedTree {
		return m.shared.Depth(src) >= 0 && m.shared.Depth(dst) >= 0
	}
	return m.spt(src).Depth(dst) >= 0
}

// base returns the jitter-free delay and hop count from src to dst, and
// false if a packet from src never reaches dst.
func (m *delayModel) base(src, dst topology.NodeID) (float64, int32, bool) {
	switch {
	case src == dst:
		return 0, 0, true
	case !m.reaches(src, dst):
		return 0, 0, false
	case m.mode == SharedTree:
		return m.shared.TreeDelay(src, dst), m.shared.TreeHops(src, dst), true
	}
	t := m.spt(src)
	return t.DelayFromRoot(dst), t.Depth(dst), true
}

// packetDelay returns one packet's delivery delay src→dst including
// per-hop jitter (fresh per packet), and false if it is never delivered.
func (m *delayModel) packetDelay(src, dst topology.NodeID) (float64, bool) {
	d, hops, ok := m.base(src, dst)
	if ok && m.jitter > 0 && hops > 0 {
		d += m.rng.Float64() * m.jitter * float64(hops)
	}
	return d, ok
}

// runReqResp simulates one request–response exchange over a net built for
// cfg's graph.
func runReqResp(cfg *ReqRespConfig, net *reqRespNet, rng *stats.RNG) ReqRespResult {
	model := newDelayModel(cfg, net, rng)

	type member struct {
		node   topology.NodeID
		sendAt float64
	}
	members := make([]member, 0, len(cfg.Members))
	for _, node := range cfg.Members {
		if node == cfg.Requester {
			continue
		}
		recvAt, ok := model.packetDelay(cfg.Requester, node)
		if !ok {
			continue // the request never reaches it
		}
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
	arrived := 0

	for _, mb := range members {
		suppressed := false
		if len(senders) > 0 && mb.sendAt >= senders[0].sentAt+net.sureSuppressDelay && model.reaches(senders[0].node, mb.node) {
			suppressed = true
		} else {
			for _, sd := range senders {
				// An earlier response that arrives before (or exactly at)
				// our send time cancels it; one that never arrives cannot.
				if d, ok := model.packetDelay(sd.node, mb.node); ok && sd.sentAt+d <= mb.sendAt {
					suppressed = true
					break
				}
			}
		}
		if suppressed {
			continue
		}
		senders = append(senders, sender{node: mb.node, sentAt: mb.sendAt})
		if res.FirstSendAt < 0 || mb.sendAt < res.FirstSendAt {
			res.FirstSendAt = mb.sendAt
		}
		d, ok := model.packetDelay(mb.node, cfg.Requester)
		if !ok {
			continue // sent, but it never arrives
		}
		arrival := mb.sendAt + d
		recvSum += arrival
		arrived++
		if res.FirstArrivalAt < 0 || arrival < res.FirstArrivalAt {
			res.FirstArrivalAt = arrival
		}
	}
	res.Responses = len(senders)
	if arrived > 0 {
		res.MeanResponseRecv = recvSum / float64(arrived)
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

// TrialStats folds repeated request–response runs.
type TrialStats struct {
	Responses  stats.Summary // responses sent, one sample a trial
	First      stats.Summary // first arrival at the requester, for each trial that had one
	MaxFirstMs float64       // the latest of those first arrivals
}

// RunTrials runs trials request–response exchanges of cfg over one net.
// Each trial splits its own RNG from root and draws the requester from it;
// cfg.Requester is ignored.
func RunTrials(cfg ReqRespConfig, trials int, root *stats.RNG) TrialStats {
	if cfg.Graph == nil || cfg.Delay == nil {
		panic("sim: ReqRespConfig.Graph and Delay are required")
	}
	net := newReqRespNet(&cfg)
	var ts TrialStats
	for trial := 0; trial < trials; trial++ {
		rng := root.Split()
		cfg.Requester = topology.NodeID(rng.IntN(cfg.Graph.NumNodes()))
		r := runReqResp(&cfg, net, rng)
		ts.Responses.Add(float64(r.Responses))
		if r.FirstArrivalAt >= 0 {
			ts.First.Add(r.FirstArrivalAt)
			ts.MaxFirstMs = max(ts.MaxFirstMs, r.FirstArrivalAt)
		}
	}
	return ts
}

// The sweeps' fixed parameters (§3): a member may respond at once (the
// delay window starts at D1 = 0), queueing adds up to 2 ms per hop when
// jitter is on, and the exponential distribution's r is a 200 ms RTT.
const (
	jitterPerHopMs = 2
	rttMillis      = 200
)

// Fig15Config drives the request–response sweeps.
type Fig15Config struct {
	// GroupSizes are the sizes of the Doar topologies; the group is every
	// node.
	GroupSizes []int
	D2Millis   []float64
	Mode       TreeMode
	Jitter     bool // per-hop queueing jitter on/off
	Exp        bool // exponential (Fig 18/19) vs uniform delay
	Trials     int
	Seed       uint64
}

// RunFig15 generates Doar topologies of each requested size and sweeps the
// D2 window, reporting mean response counts and first-response delays.
func RunFig15(cfg Fig15Config) ([]Fig15Point, error) {
	if cfg.Trials < 1 {
		cfg.Trials = 3
	}
	jitter := 0.0
	if cfg.Jitter {
		jitter = jitterPerHopMs
	}
	root := stats.NewRNG(cfg.Seed)
	var out []Fig15Point
	for _, size := range cfg.GroupSizes {
		g, err := topology.GenerateGrid(size, root.Split())
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
				delay = clash.NewExponentialDelay(0, d2, rttMillis)
			} else {
				delay = clash.NewUniformDelay(0, d2)
			}
			ts := RunTrials(ReqRespConfig{
				Graph:        g,
				Mode:         cfg.Mode,
				Members:      members,
				Delay:        delay,
				JitterPerHop: jitter,
			}, cfg.Trials, root)
			out = append(out, Fig15Point{
				Mode:          cfg.Mode,
				Jitter:        cfg.Jitter,
				DelayName:     delay.Name(),
				D2Millis:      d2,
				GroupSize:     size,
				MeanResponses: ts.Responses.Mean(),
				MeanFirstMs:   ts.First.Mean(),
				MaxFirstMs:    ts.MaxFirstMs,
				Trials:        cfg.Trials,
			})
		}
	}
	return out, nil
}
