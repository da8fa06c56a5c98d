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
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sessiondir"
	"sessiondir/internal/des"
	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
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
	// SessionsPerAgent is how many sessions each agent creates up front.
	SessionsPerAgent int
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
}

// Alive reports whether the agent is still running (i.e. not Killed).
func (a *Agent) Alive() bool { return a.alive }

// Event is one scripted schedule entry: Do runs at virtual time At,
// measured from the Run call the event was passed to. Events fire in At
// order (ties in slice order).
type Event struct {
	At time.Duration
	Do func(h *Harness)
}

// Harness owns the fleet and, through it, the engine whose clock
// everything runs on and the network. It is not safe for concurrent use;
// a chaos run is single-threaded on purpose (concurrency would
// re-introduce scheduling nondeterminism).
type Harness struct {
	cfg    Config
	fleet  *des.Fleet
	agents []*Agent
	// root is retained after construction so adversaries added later draw
	// from the same seeded RNG tree as the fleet.
	root  *stats.RNG
	space mcast.AddrSpace
	advs  []*Adversary
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
		cfg:   cfg,
		root:  stats.NewRNG(cfg.Seed),
		space: cfg.Dir.Space,
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

// Agent returns agent i.
func (h *Harness) Agent(i int) *Agent { return h.agents[i] }

// Now returns the current virtual time.
func (h *Harness) Now() time.Time { return h.fleet.Engine.Now() }

// CreateSessions makes each agent announce SessionsPerAgent sessions.
// The announcements are in flight when it returns and arrive, subject to
// whatever faults are already installed, once Run advances the clock past
// the path delay.
func (h *Harness) CreateSessions() error {
	for _, a := range h.agents {
		for j := 0; j < h.cfg.SessionsPerAgent; j++ {
			_, err := a.Dir.CreateSession(&session.Description{
				Name: fmt.Sprintf("chaos-%d-%d", a.Index, j),
				TTL:  h.cfg.TTL,
				Media: []session.Media{
					{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"},
				},
			})
			if err != nil {
				return fmt.Errorf("chaos: agent %d session %d: %w", a.Index, j, err)
			}
		}
	}
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

// ClearFaults removes the fault profile. Packets already delayed still
// arrive when they come due, so none is stranded.
func (h *Harness) ClearFaults() { h.SetFaults(fault.Profile{}) }

// Partition splits the fabric by agent index; agents in no group — and
// every adversary — are cut off.
func (h *Harness) Partition(groups ...[]int) {
	nodes := make([][]int, len(groups))
	for gi, g := range groups {
		for _, idx := range g {
			nodes[gi] = append(nodes[gi], int(h.fleet.Nodes[idx]))
		}
	}
	h.fleet.Net.SetLinkFilter(des.PartitionGroups(fault.Partition(nodes...)))
}

// Heal removes any active partition.
func (h *Harness) Heal() { h.fleet.Net.SetLinkFilter(nil) }

// Kill stops agent i for good: its directory closes and its endpoint
// detaches, so the fleet stops hearing its announcements — the
// silent-announcer case whose state must expire.
func (h *Harness) Kill(i int) {
	a := h.agents[i]
	if !a.alive {
		return
	}
	a.alive = false
	h.fleet.Kill(i)
}

// Run schedules events on the engine, each at its At after the current
// virtual time, and advances the clock by duration. Directory timers and
// adversaries tick on the engine the whole while, so everything that
// shares an instant runs in one fixed order — the order it was scheduled
// in. An event due after duration is dropped, not carried into a later
// Run.
func (h *Harness) Run(events []Event, duration time.Duration) {
	start := h.fleet.Engine.Now()
	for _, ev := range events {
		if ev.At <= duration {
			h.fleet.Engine.Schedule(start.Add(ev.At), func() { ev.Do(h) })
		}
	}
	h.fleet.Engine.RunFor(duration)
}

// Fingerprint summarises agent i's view of the world: one sorted
// "key addr" line per live session it knows. Two agents with equal
// fingerprints agree on the session set and every address.
func (h *Harness) Fingerprint(i int) string {
	descs := h.agents[i].Dir.Sessions()
	lines := make([]string, 0, len(descs))
	for _, d := range descs {
		lines = append(lines, d.Key()+" "+d.Group.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Converged reports whether every live agent holds the same fingerprint,
// returning that fingerprint and, on disagreement, the dissenting agents.
func (h *Harness) Converged() (fp string, ok bool, dissent []int) {
	first := -1
	for _, a := range h.agents {
		if !a.alive {
			continue
		}
		f := h.Fingerprint(a.Index)
		if first < 0 {
			first, fp, ok = a.Index, f, true
			continue
		}
		if f != fp {
			ok = false
			dissent = append(dissent, a.Index)
		}
	}
	return fp, ok, dissent
}

// AddressClashes returns every multicast address currently announced by
// more than one live agent's *own* sessions — the allocations the clash
// protocol exists to keep distinct. Empty means clash-free.
func (h *Harness) AddressClashes() []string {
	type owned struct{ addr, key string }
	var all []owned
	for _, a := range h.agents {
		if !a.alive {
			continue
		}
		for _, d := range a.Dir.OwnSessions() {
			all = append(all, owned{addr: d.Group.String(), key: d.Key()})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].addr != all[j].addr {
			return all[i].addr < all[j].addr
		}
		return all[i].key < all[j].key
	})
	var clashes []string
	for i := 1; i < len(all); i++ {
		if all[i].addr == all[i-1].addr && all[i].key != all[i-1].key {
			clashes = append(clashes, fmt.Sprintf("%s: %s vs %s", all[i].addr, all[i-1].key, all[i].key))
		}
	}
	return clashes
}

// TotalAddressChanges sums phase-2 clash moves across live agents — the
// quantity that must go quiet for clash correction to count as terminated.
func (h *Harness) TotalAddressChanges() uint64 {
	var n uint64
	for _, a := range h.agents {
		if a.alive {
			n += a.Dir.Metrics().ClashAddressChanges
		}
	}
	return n
}

// SessionCount returns how many sessions agent i currently knows.
func (h *Harness) SessionCount(i int) int { return len(h.agents[i].Dir.Sessions()) }

// Knows reports whether agent i currently caches a session with the given
// key.
func (h *Harness) Knows(i int, key string) bool {
	for _, d := range h.agents[i].Dir.Sessions() {
		if d.Key() == key {
			return true
		}
	}
	return false
}
