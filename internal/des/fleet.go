package des

import (
	"fmt"
	"net/netip"
	"time"

	"sessiondir"
	"sessiondir/internal/announce"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/topology"
)

// Fleet is a set of real sessiondir.Directory agents attached to a
// simulated network under one virtual clock — the full production protocol
// stack running inside the DES.
type Fleet struct {
	Engine *Engine
	Net    *Net
	Dirs   []*sessiondir.Directory
	Nodes  []topology.NodeID
	// Endpoints are the directories' attachments to Net, by index (their
	// Stats are the fates each directory's receive side drew).
	Endpoints []*Endpoint
	// Traces are the directories' event rings, by index (nil entries
	// unless FleetConfig.TraceCap > 0).
	Traces []*obs.Trace
}

// FleetConfig parameterises a fleet.
type FleetConfig struct {
	// Nodes lists where to attach one directory each.
	Nodes []topology.NodeID
	// Space is the shared allocation space size.
	Space uint32
	// Backoff overrides the announcement schedule (zero = library default).
	Backoff announce.Backoff
	// Delay overrides the third-party defence delay distribution
	// (nil = library default exponential).
	Delay clash.DelayDist
	// StepPeriod is how often each directory's timer step runs
	// (0 = 500 ms, finer than the real daemon's 1 s to keep virtual-time
	// tests crisp).
	StepPeriod time.Duration
	// OnEvent receives every directory's events, tagged by index.
	OnEvent func(idx int, e sessiondir.Event)
	Seed    uint64

	// CacheTimeout and the admission budgets are passed through to every
	// directory (zero values mean what they mean in sessiondir.Config).
	CacheTimeout time.Duration
	MaxSessions  int
	MaxPerOrigin int
	OriginRate   float64
	OriginBurst  float64
	StaleAfter   time.Duration
	// TraceCap, when > 0, gives every directory an obs event ring of this
	// capacity (Fleet.Traces).
	TraceCap int
}

// NewFleet attaches one directory per node and schedules their timer
// steps on the engine.
func NewFleet(engine *Engine, net *Net, cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("des: fleet needs nodes")
	}
	if cfg.Space == 0 {
		cfg.Space = 256
	}
	step := cfg.StepPeriod
	if step == 0 {
		step = 500 * time.Millisecond
	}
	f := &Fleet{Engine: engine, Net: net, Nodes: cfg.Nodes}
	for i, node := range cfg.Nodes {
		ep, err := net.Attach(node)
		if err != nil {
			return nil, err
		}
		// Synthesise a stable origin address from the node id.
		origin := netip.AddrFrom4([4]byte{10, byte(node >> 8), byte(node), byte(i)})
		var trace *obs.Trace
		if cfg.TraceCap > 0 {
			trace = obs.NewTrace(cfg.TraceCap)
		}
		dcfg := sessiondir.Config{
			Origin:       origin,
			Transport:    ep,
			Space:        mcast.SyntheticSpace(cfg.Space),
			Clock:        engine.Now,
			Seed:         cfg.Seed + uint64(i)*7919,
			Backoff:      cfg.Backoff,
			Delay:        cfg.Delay,
			CacheTimeout: cfg.CacheTimeout,
			MaxSessions:  cfg.MaxSessions,
			MaxPerOrigin: cfg.MaxPerOrigin,
			OriginRate:   cfg.OriginRate,
			OriginBurst:  cfg.OriginBurst,
			StaleAfter:   cfg.StaleAfter,
			Trace:        trace,
		}
		if cfg.OnEvent != nil {
			idx := i
			dcfg.OnEvent = func(e sessiondir.Event) { cfg.OnEvent(idx, e) }
		}
		d, err := sessiondir.New(dcfg)
		if err != nil {
			return nil, err
		}
		f.Dirs = append(f.Dirs, d)
		f.Endpoints = append(f.Endpoints, ep)
		f.Traces = append(f.Traces, trace)
		dir := d
		engine.Every(step, func() { dir.Step(engine.Now()) })
	}
	return f, nil
}

// Kill stops directory i for good: it closes and its endpoint detaches,
// so the fleet stops hearing it — the silent announcer whose state must
// expire. Its timer step stays scheduled and does nothing (a closed
// directory's Step is a no-op).
func (f *Fleet) Kill(i int) {
	f.Dirs[i].Close()
	_ = f.Endpoints[i].Close() // simulated endpoints do not fail on close
}

// Close shuts every directory down.
func (f *Fleet) Close() {
	for _, d := range f.Dirs {
		d.Close()
	}
}
