package des

import (
	"fmt"
	"net/netip"
	"time"

	"sessiondir"
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
	// Traces are the directories' event rings, by index, filled from their
	// events (nil entries unless FleetConfig.TraceCap > 0).
	Traces []*obs.Trace
}

// FleetConfig parameterises a fleet.
type FleetConfig struct {
	// Nodes lists where to attach one directory each.
	Nodes []topology.NodeID
	// Dir is the configuration the directories share. NewFleet fills in
	// each one's Origin (from its node and index), Transport (its
	// endpoint), Clock (the engine's), Seed (Dir.Seed + index·7919) and
	// OnEvent. Allocator and Obs, if set, are shared by every directory:
	// leave Obs nil, since one registry takes one directory.
	Dir sessiondir.Config
	// StepPeriod is how often each directory's timer step runs
	// (0 = 500 ms, finer than the real daemon's 1 s to keep virtual-time
	// tests crisp).
	StepPeriod time.Duration
	// OnEvent receives every directory's events, tagged by index.
	OnEvent func(idx int, e sessiondir.Event)
	// TraceCap, when > 0, gives every directory an obs event ring of this
	// capacity (Fleet.Traces), filled from its events.
	TraceCap int
}

// NewFleet attaches one directory per node and schedules their timer
// steps on the engine.
func NewFleet(engine *Engine, net *Net, cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("des: fleet needs nodes")
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
		var trace *obs.Trace
		if cfg.TraceCap > 0 {
			trace = obs.NewTrace(cfg.TraceCap)
		}
		dcfg := cfg.Dir
		// Synthesise a stable origin address from the node id.
		dcfg.Origin = netip.AddrFrom4([4]byte{10, byte(node >> 8), byte(node), byte(i)})
		dcfg.Transport = ep
		dcfg.Clock = engine.Now
		dcfg.Seed = cfg.Dir.Seed + uint64(i)*7919
		dcfg.OnEvent = agentEvents(i, cfg.OnEvent, trace)
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

// agentEvents is directory idx's event listener: it records each event
// into trace and hands it to onEvent, tagged with idx. With neither there
// is no listener, and the directory builds no records.
func agentEvents(idx int, onEvent func(int, sessiondir.Event), trace *obs.Trace) func(sessiondir.Event) {
	if onEvent == nil && trace == nil {
		return nil
	}
	return func(e sessiondir.Event) {
		trace.Record(e.TraceEvent)
		if onEvent != nil {
			onEvent(idx, e)
		}
	}
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
