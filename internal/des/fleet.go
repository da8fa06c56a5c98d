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
	// events (nil entries unless FleetConfig.TraceCap > 0). A restarted
	// directory records into its predecessor's ring.
	Traces []*obs.Trace

	cfg    FleetConfig
	frozen []bool
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
	n := len(cfg.Nodes)
	f := &Fleet{
		Engine: engine, Net: net, Nodes: cfg.Nodes,
		Dirs: make([]*sessiondir.Directory, n), Endpoints: make([]*Endpoint, n), Traces: make([]*obs.Trace, n),
		cfg: cfg, frozen: make([]bool, n),
	}
	for i := range cfg.Nodes {
		if cfg.TraceCap > 0 {
			f.Traces[i] = obs.NewTrace(cfg.TraceCap)
		}
		if err := f.start(i, cfg.Dir.Seed+uint64(i)*7919); err != nil {
			return nil, err
		}
		engine.Every(step, func() {
			if !f.frozen[i] {
				f.Dirs[i].Step(engine.Now())
			}
		})
	}
	return f, nil
}

// start attaches directory i, seeded with seed, at its node.
func (f *Fleet) start(i int, seed uint64) error {
	node := f.Nodes[i]
	ep, err := f.Net.Attach(node)
	if err != nil {
		return err
	}
	dcfg := f.cfg.Dir
	// Synthesise a stable origin address from the node id.
	dcfg.Origin = netip.AddrFrom4([4]byte{10, byte(node >> 8), byte(node), byte(i)})
	dcfg.Transport = ep
	dcfg.Clock = f.Engine.Now
	dcfg.Seed = seed
	dcfg.OnEvent = agentEvents(i, f.cfg.OnEvent, f.Traces[i])
	d, err := sessiondir.New(dcfg)
	if err != nil {
		return err
	}
	f.Dirs[i], f.Endpoints[i] = d, ep
	return nil
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

// Kill stops directory i: it closes and its endpoint detaches, so the
// fleet stops hearing it — the silent announcer whose state must expire,
// or a crashed daemon until Restart. Its timer step stays scheduled and
// does nothing (a closed directory's Step is a no-op).
func (f *Fleet) Kill(i int) {
	f.Dirs[i].Close()
	_ = f.Endpoints[i].Close() // simulated endpoints do not fail on close
}

// Restart brings directory i back after Kill as a new incarnation: a new
// Directory seeded with seed, on a new endpoint at the same node, with the
// same origin. Its timer steps run on the old schedule.
func (f *Fleet) Restart(i int, seed uint64) error { return f.start(i, seed) }

// Freeze stops directory i as SIGSTOP stops a daemon: until Thaw it takes
// no timer step and hears nothing — what reaches it meanwhile is lost —
// so it sends nothing either.
func (f *Fleet) Freeze(i int) {
	f.frozen[i] = true
	f.Endpoints[i].Subscribe(nil)
}

// Thaw resumes directory i. Its next timer step catches up on everything
// that came due while it was frozen.
func (f *Fleet) Thaw(i int) {
	f.frozen[i] = false
	f.Endpoints[i].Subscribe(f.Dirs[i].HandleBatch)
}

// Close shuts every directory down.
func (f *Fleet) Close() {
	for _, d := range f.Dirs {
		d.Close()
	}
}
