// Package chaos is the fault-injection convergence harness: it runs a
// des.Fleet of session-directory agents on a des.Net — the one in-process
// faulty fabric — through a scripted schedule of loss, duplication,
// corruption, delay, partition, and crash events, all on the des.Engine's
// virtual clock with every random decision drawn from one seeded
// stats.RNG tree. A run is therefore a pure function of (Config,
// schedule): a failing seed replays bit-identically, which is what makes
// soft-state convergence claims testable at all.
//
// The invariants it checks are the paper's §2.2–§3 soft-state promises:
// once faults stop, every agent's cache converges to the same session set
// (announce–listen repairs loss), clash correction terminates rather than
// live-locking (no two live agents keep swapping addresses forever), and
// state whose announcer has gone silent is eventually evicted. On a
// Config.Graph with TTL scoping, "the same session set" becomes "exactly
// the sessions whose scope reaches the agent".
//
// A scripted step is an Event on a Backend. Schedule is the scenario
// cmd/mcchaos runs against real sdrd processes; its runner, Schedule.Run,
// evaluates the invariants once for both backends: Harness (InProcess)
// on virtual time, and mcchaos's process fleet on the wall clock.
package chaos

import (
	"fmt"
	"time"

	"sessiondir"
	"sessiondir/internal/announce"
	"sessiondir/internal/des"
	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/storage"
	"sessiondir/internal/topology"
)

// Config assembles a Harness.
type Config struct {
	// Agents is the fleet size. Required (>= 2).
	Agents int
	// Seed drives every random decision in the run (fault draws, allocator
	// choices, suppression delays). Required non-zero so a failure report
	// can always name the seed it replays from.
	Seed uint64
	// Start is the virtual-time origin. Required (the harness never reads
	// the wall clock).
	Start time.Time
	// Tick is the period of every directory's timer step and every
	// adversary's packet budget (0 = 1 s, the directory's own cadence).
	Tick time.Duration
	// TTL is the scope of every created session (0 = 127).
	TTL mcast.TTL
	// Dir is the configuration the agents' directories share, as
	// des.FleetConfig.Dir: the fleet fills in each agent's origin,
	// transport, clock and event listener, its seed comes off Seed's RNG
	// tree, and a zero Space is a 256-address synthetic space. Small spaces
	// force clashes, which is the point of several schedules; a
	// CacheTimeout near the schedule length tests eviction; hostile
	// schedules set the admission budgets to assert the fleet survives
	// within them.
	Dir sessiondir.Config

	// Graph and Nodes place the fleet on a topology: agent i attaches at
	// Nodes[i] and hears what TTL scoping lets reach it. Both unset is the
	// flat fabric — a hub with one spoke per agent, everyone two 1 ms hops
	// from everyone — where every scope reaches every agent.
	Graph *topology.Graph
	Nodes []topology.NodeID

	// TraceCap, when > 0, gives every agent an obs event ring of this
	// capacity, filled from its directory's events (reachable as
	// Agent.Trace). Recording draws no randomness, so a traced run must
	// replay bit-identically to an untraced one — the replay tests assert
	// exactly that.
	TraceCap int
}

// Agent is one directory instance and its attachment to the fabric.
type Agent struct {
	Index int
	Dir   *sessiondir.Directory
	// Endpoint is where the agent hears the network; its Stats are the
	// fates its receive side drew.
	Endpoint *des.Endpoint
	// Trace is the agent's event ring (nil unless Config.TraceCap > 0).
	Trace *obs.Trace

	alive bool
	// fs holds the agent's journaled cache, and ckpt paces the current
	// incarnation's checkpoints (both nil until Spawn).
	fs   storage.FS
	ckpt *sessiondir.Checkpointer
}

// Harness owns the fleet and, through it, the engine whose clock
// everything runs on and the network. It is not safe for concurrent use;
// a chaos run is single-threaded on purpose (concurrency would
// re-introduce scheduling nondeterminism).
type Harness struct {
	cfg    Config
	fleet  *des.Fleet
	agents []*Agent
	// root is retained after construction so adversaries added later and
	// restarted agents draw from the same seeded RNG tree as the fleet.
	root *stats.RNG
	advs []*Adversary
	// advNode is where the search for the next adversary's node starts.
	advNode topology.NodeID
}

// spareSpokes is how many spokes the flat fabric has beyond one per agent,
// for adversaries to attach to (the gauntlet, the largest hostile
// schedule, adds five).
const spareSpokes = 8

// star builds the flat fabric: node 0 is a hub no agent attaches to, every
// other node a spoke one 1 ms, threshold-1 link away.
func star(spokes int) *topology.Graph {
	g := topology.NewGraph(spokes + 1)
	for i := 1; i <= spokes; i++ {
		g.MustAddLink(0, topology.NodeID(i), 1, 1, 1)
	}
	return g
}

// New builds the fleet: one des.Engine started at Config.Start, one
// des.Net over the topology, and a des.Fleet of directories whose clocks
// are the engine's and whose seeds, like the network's, come off the
// harness root RNG.
func New(cfg Config) (*Harness, error) {
	if cfg.Agents < 2 {
		return nil, fmt.Errorf("chaos: need at least 2 agents, got %d", cfg.Agents)
	}
	if cfg.Seed == 0 {
		return nil, fmt.Errorf("chaos: Seed is required (a run must be replayable by seed)")
	}
	if cfg.Start.IsZero() {
		return nil, fmt.Errorf("chaos: Start is required (the harness runs on virtual time only)")
	}
	if cfg.Tick == 0 {
		cfg.Tick = time.Second
	}
	if cfg.Dir.Space.Size == 0 {
		cfg.Dir.Space = mcast.SyntheticSpace(256)
	}
	if cfg.TTL == 0 {
		cfg.TTL = 127
	}
	if cfg.Graph == nil {
		if cfg.Nodes != nil {
			return nil, fmt.Errorf("chaos: Nodes without a Graph")
		}
		cfg.Graph = star(cfg.Agents + spareSpokes)
		for i := 1; i <= cfg.Agents; i++ {
			cfg.Nodes = append(cfg.Nodes, topology.NodeID(i))
		}
	} else if len(cfg.Nodes) != cfg.Agents {
		return nil, fmt.Errorf("chaos: %d agents but %d nodes", cfg.Agents, len(cfg.Nodes))
	}

	h := &Harness{
		cfg:  cfg,
		root: stats.NewRNG(cfg.Seed),
	}
	engine := des.NewEngine(cfg.Start)
	net, err := des.NewNet(engine, des.NetConfig{Graph: cfg.Graph, Seed: h.root.Uint64()})
	if err != nil {
		return nil, err
	}
	dir := cfg.Dir
	dir.Seed = h.root.Uint64()
	h.fleet, err = des.NewFleet(engine, net, des.FleetConfig{
		Nodes:      cfg.Nodes,
		Dir:        dir,
		StepPeriod: cfg.Tick,
		TraceCap:   cfg.TraceCap,
	})
	if err != nil {
		return nil, err
	}
	for i, dir := range h.fleet.Dirs {
		h.agents = append(h.agents, &Agent{
			Index: i, Dir: dir, Endpoint: h.fleet.Endpoints[i], Trace: h.fleet.Traces[i], alive: true,
		})
	}
	return h, nil
}

// announce makes agent a create and announce a session called name.
func (h *Harness) announce(a *Agent, name string) error {
	_, err := a.Dir.CreateSession(&session.Description{
		Name:  name,
		TTL:   h.cfg.TTL,
		Media: []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	})
	if err != nil {
		return fmt.Errorf("chaos: agent %d session %q: %w", a.Index, name, err)
	}
	return nil
}

// InProcess is the in-process Backend for a Schedule: n agents on the flat
// fabric, set up as cmd/mcchaos sets up its sdrd daemons — the SAP dynamic
// space, TTL-15 sessions, a 64-session budget, stale after 4 s, the 2 s
// compressed announcement schedule and sdrd's 1 s timer step, which puts
// a Step, and with it the overload tier the packet path acts on, inside
// each crowd wave gap.
func InProcess(n int, seed uint64) (*Harness, error) { //mclint:unused the in-process schedule tests here and in cmd/mcchaos run on it
	return New(Config{
		Agents: n,
		Seed:   seed,
		Start:  time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC),
		TTL:    AgentTTL,
		Dir: sessiondir.Config{
			Space:       mcast.SAPDynamicSpace(),
			Backoff:     announce.CompressedBackoff(AgentAnnounceInitial),
			MaxSessions: AgentMaxSessions,
			StaleAfter:  AgentStaleAfter,
		},
	})
}

// spawnGap is how long after one agent Spawn brings up the next: daemons
// spawned one after another come up a few milliseconds apart, long enough
// for each to hear its predecessors' first announcements before it
// allocates. Brought up at one instant, every agent would see the same
// empty cache and pick the same address.
const spawnGap = 10 * time.Millisecond

// Spawn implements Backend: each agent opens a journaled cache over its
// own storage.MemFS (agent diskAgent's under a storage.FaultFS built from
// diskFaults), paces its checkpoints with a sessiondir.Checkpointer, and
// announces one session — sdrd's startup with -cache, -checkpoint and
// -announce.
func (h *Harness) Spawn(diskAgent int, diskFaults string) error {
	for _, a := range h.agents {
		if a.Index > 0 {
			h.Run(nil, spawnGap)
		}
		a.fs = storage.NewMemFS()
		if a.Index == diskAgent {
			seed, prof, err := storage.ParseFaultSpec(diskFaults)
			if err != nil {
				return err
			}
			a.fs = storage.NewFaultFS(a.fs, seed, prof)
		}
		if err := h.bringUp(a); err != nil {
			return err
		}
	}
	return nil
}

// bringUp starts agent a's incarnation as sdrd starts: recover the cache
// from the store, take the first checkpoint (a failure only delays
// durability), start the checkpoint cadence, announce.
func (h *Harness) bringUp(a *Agent) error {
	cs, _, err := sessiondir.OpenCacheStore(a.fs, "agent.cache", a.Dir)
	if err != nil {
		return err
	}
	_ = cs.Checkpoint() // counted in cache_checkpoint_errors_total; the cadence retries
	ck := sessiondir.NewCheckpointer(cs, AgentCheckpoint)
	a.ckpt = ck
	var tick func()
	tick = func() {
		if a.ckpt == ck { // else this incarnation is dead
			next, _ := ck.Tick() // counted, and retried after next
			h.fleet.Engine.After(next, tick)
		}
	}
	h.fleet.Engine.After(AgentCheckpoint, tick)
	return h.announce(a, fmt.Sprintf("chaos-%d", a.Index))
}

// Sessions implements Backend.
func (h *Harness) Sessions(i int) ([]Row, error) {
	d := h.agents[i].Dir
	own := make(map[string]bool)
	for _, s := range d.OwnSessions() {
		own[s.Key()] = true
	}
	var rows []Row
	for _, s := range d.Sessions() {
		rows = append(rows, Row{Key: s.Key(), Group: s.Group, Own: own[s.Key()]})
	}
	return rows, nil
}

// Metrics implements Backend from agent i's own registry.
func (h *Harness) Metrics(i int) (map[string]float64, error) {
	m := make(map[string]float64)
	for _, s := range h.agents[i].Dir.Registry().Snapshot() {
		m[s.Name] = s.Value
	}
	return m, nil
}

// Health implements Backend: a running agent is live, and ready unless
// its checkpoints are degraded.
func (h *Harness) Health(i int) (live, ready bool) {
	a := h.agents[i]
	return a.alive, a.alive && (a.ckpt == nil || !a.ckpt.Degraded())
}

// Inject implements Backend: each live agent hears the copies at once.
func (h *Harness) Inject(pkt []byte, copies int) error {
	for _, a := range h.agents {
		for range copies {
			a.Endpoint.Deliver(pkt)
		}
	}
	return nil
}

// Restart implements Backend: a new Directory, seeded from the harness
// RNG, over the agent's store, on an endpoint re-attached at its node.
func (h *Harness) Restart(i int) error {
	a := h.agents[i]
	if err := h.fleet.Restart(i, h.root.Uint64()); err != nil {
		return err
	}
	a.Dir, a.Endpoint, a.alive = h.fleet.Dirs[i], h.fleet.Endpoints[i], true
	return h.bringUp(a)
}

// Freeze implements Backend.
func (h *Harness) Freeze(i int) error {
	h.fleet.Freeze(i)
	return nil
}

// Thaw implements Backend.
func (h *Harness) Thaw(i int) error {
	h.fleet.Thaw(i)
	return nil
}

// SetFaults installs profile as the receive-side fault process of every
// endpoint on the network — independent per-receiver loss, the paper's
// tail-loss regime. An invalid profile is a bug in the schedule and
// panics.
func (h *Harness) SetFaults(profile fault.Profile) {
	if err := h.fleet.Net.SetProfile(profile); err != nil {
		panic(err)
	}
}

// Partition splits the fabric by agent index; agents in no group — and
// every adversary — are cut off. It returns how many directed links
// between agents it severed.
func (h *Harness) Partition(groups ...[]int) int {
	nodes := make([][]int, len(groups))
	for gi, g := range groups {
		for _, idx := range g {
			nodes[gi] = append(nodes[gi], int(h.fleet.Nodes[idx]))
		}
	}
	keep := des.PartitionGroups(fault.Partition(nodes...))
	h.fleet.Net.SetLinkFilter(keep)
	severed := 0
	for _, src := range h.fleet.Nodes {
		for _, dst := range h.fleet.Nodes {
			if src != dst && !keep(src, dst) {
				severed++
			}
		}
	}
	return severed
}

// Heal removes any active partition.
func (h *Harness) Heal() { h.fleet.Net.SetLinkFilter(nil) }

// Kill stops agent i: its directory closes and its endpoint detaches, so
// the fleet stops hearing its announcements — the silent-announcer case
// whose state must expire, or a crash until Restart.
func (h *Harness) Kill(i int) error {
	a := h.agents[i]
	if a.alive {
		a.alive, a.ckpt = false, nil
		h.fleet.Kill(i)
	}
	return nil
}

// Run implements Backend: it schedules events on the engine, each at its
// At after the current virtual time, and advances the clock by duration.
// Directory timers and adversaries tick on the engine the whole while, so
// everything that shares an instant runs in one fixed order — the order
// it was scheduled in.
func (h *Harness) Run(events []Event, duration time.Duration) {
	start := h.fleet.Engine.Now()
	for _, ev := range events {
		if ev.At <= duration {
			h.fleet.Engine.Schedule(start.Add(ev.At), func() { ev.Do(h) })
		}
	}
	h.fleet.Engine.RunFor(duration)
}
