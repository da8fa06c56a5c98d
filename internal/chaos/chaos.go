// Package chaos is the fault-injection convergence harness: it runs a
// fleet of session-directory agents on an in-process Bus, each behind its
// own FaultTransport, through a scripted schedule of loss, duplication,
// corruption, delay, partition, and crash events — all on a ManualClock
// with every random decision drawn from one seeded stats.RNG tree. A run
// is therefore a pure function of (Config, schedule): a failing seed
// replays bit-identically, which is what makes soft-state convergence
// claims testable at all.
//
// The invariants it checks are the paper's §2.2–§3 soft-state promises:
// once faults stop, every agent's cache converges to the same session set
// (announce–listen repairs loss), clash correction terminates rather than
// live-locking (no two live agents keep swapping addresses forever), and
// state whose announcer has gone silent is eventually evicted.
package chaos

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"sessiondir"
	"sessiondir/internal/clash"
	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/transport"
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
	// Tick is the virtual step size (0 = 1 s, the directory's own cadence).
	Tick time.Duration
	// SpaceSize is the synthetic address-space size (0 = 256). Small spaces
	// force clashes, which is the point of several schedules.
	SpaceSize uint32
	// SessionsPerAgent is how many sessions each agent creates up front.
	SessionsPerAgent int
	// TTL is the scope of every created session (0 = 127).
	TTL mcast.TTL
	// CacheTimeout expires unheard sessions (0 = the directory default of
	// one hour; set it near the schedule length to test eviction).
	CacheTimeout time.Duration

	// Admission budgets, passed through to every agent's directory (zero
	// values disable each mechanism, matching sessiondir.Config). Hostile
	// schedules set these to assert the fleet survives within them.
	MaxSessions  int
	MaxPerOrigin int
	OriginRate   float64
	OriginBurst  float64
	StaleAfter   time.Duration

	// TraceCap, when > 0, attaches an obs event ring of this capacity to
	// every agent's directory (reachable as Agent.Trace). Recording draws
	// no randomness, so a traced run must replay bit-identically to an
	// untraced one — the replay tests assert exactly that.
	TraceCap int
}

// Agent is one directory instance and its fault-injecting transport.
type Agent struct {
	Index int
	Dir   *sessiondir.Directory
	Fault *transport.FaultTransport
	// Trace is the agent's event ring (nil unless Config.TraceCap > 0).
	Trace *obs.Trace

	ep    *transport.BusEndpoint
	alive bool
}

// Alive reports whether the agent is still running (i.e. not Killed).
func (a *Agent) Alive() bool { return a.alive }

// Event is one scripted schedule entry: Do runs once the run's elapsed
// virtual time reaches At. Events fire in At order (ties in slice order)
// before that tick's transport and directory steps.
type Event struct {
	At time.Duration
	Do func(h *Harness)
}

// Harness owns the fleet, the shared manual clock, and the Bus fabric.
// It is not safe for concurrent use; a chaos run is single-threaded on
// purpose (concurrency would re-introduce scheduling nondeterminism).
type Harness struct {
	cfg    Config
	clk    *transport.ManualClock
	bus    *transport.Bus
	agents []*Agent
	// root is retained after construction so adversaries added later draw
	// from the same seeded RNG tree as the fleet.
	root  *stats.RNG
	space mcast.AddrSpace
	advs  []*Adversary
}

// New builds the fleet: one Bus, one ManualClock, and per agent a
// FaultTransport-wrapped endpoint plus a Directory with an injected clock
// and a seed split off the harness root RNG.
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
	if cfg.SpaceSize == 0 {
		cfg.SpaceSize = 256
	}
	if cfg.TTL == 0 {
		cfg.TTL = 127
	}

	h := &Harness{
		cfg:   cfg,
		clk:   transport.NewManualClock(cfg.Start),
		bus:   transport.NewBus(),
		root:  stats.NewRNG(cfg.Seed),
		space: mcast.SyntheticSpace(cfg.SpaceSize),
	}
	root := h.root
	for i := 0; i < cfg.Agents; i++ {
		ep := h.bus.Endpoint()
		ft, err := transport.NewFault(ep, transport.FaultConfig{
			RNG:   root.Split(),
			Clock: h.clk,
		})
		if err != nil {
			return nil, err
		}
		dirSeed := root.Uint64()
		if dirSeed == 0 {
			dirSeed = 1 // 0 means "pick a default" to the Directory
		}
		var trace *obs.Trace
		if cfg.TraceCap > 0 {
			trace = obs.NewTrace(cfg.TraceCap)
		}
		dir, err := sessiondir.New(sessiondir.Config{
			Origin:       netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i&0xff) + 1}),
			Transport:    ft,
			Space:        mcast.SyntheticSpace(cfg.SpaceSize),
			CacheTimeout: cfg.CacheTimeout,
			Delay:        clash.NewExponentialDelay(0, 3200, 200),
			Clock:        h.clk.Now,
			Seed:         dirSeed,
			MaxSessions:  cfg.MaxSessions,
			MaxPerOrigin: cfg.MaxPerOrigin,
			OriginRate:   cfg.OriginRate,
			OriginBurst:  cfg.OriginBurst,
			StaleAfter:   cfg.StaleAfter,
			Trace:        trace,
		})
		if err != nil {
			return nil, err
		}
		h.agents = append(h.agents, &Agent{Index: i, Dir: dir, Fault: ft, Trace: trace, ep: ep, alive: true})
	}
	return h, nil
}

// Agent returns agent i.
func (h *Harness) Agent(i int) *Agent { return h.agents[i] }

// Now returns the current virtual time.
func (h *Harness) Now() time.Time { return h.clk.Now() }

// CreateSessions makes each agent announce SessionsPerAgent sessions.
// Announcements propagate immediately (the Bus is synchronous), subject to
// whatever faults are already installed.
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
// live agent — independent per-receiver loss, the paper's tail-loss
// regime.
func (h *Harness) SetFaults(profile fault.Profile) {
	for _, a := range h.agents {
		if a.alive {
			a.Fault.SetProfile(profile)
		}
	}
}

// ClearFaults removes all fault profiles and flushes every delay queue so
// no packet is stranded once the fault phase of a schedule ends.
func (h *Harness) ClearFaults() {
	h.SetFaults(fault.Profile{})
	h.FlushDelayed()
}

// FlushDelayed drains every live agent's delay queue immediately.
func (h *Harness) FlushDelayed() {
	for _, a := range h.agents {
		if a.alive {
			a.Fault.FlushDelayed()
		}
	}
}

// Partition splits the fabric by agent index; agents in no group are cut
// off. Compare Bus.Partition, which speaks endpoint IDs.
func (h *Harness) Partition(groups ...[]int) {
	idGroups := make([][]int, len(groups))
	for gi, g := range groups {
		for _, idx := range g {
			idGroups[gi] = append(idGroups[gi], h.agents[idx].ep.ID())
		}
	}
	h.bus.Partition(idGroups...)
}

// Heal removes any active partition.
func (h *Harness) Heal() { h.bus.Heal() }

// Kill stops agent i for good: its directory closes and its transport
// (including the bus endpoint) shuts down, so the fleet stops hearing its
// announcements — the silent-announcer case whose state must expire.
func (h *Harness) Kill(i int) {
	a := h.agents[i]
	if !a.alive {
		return
	}
	a.alive = false
	a.Dir.Close()
	_ = a.Fault.Close() // bus endpoints do not fail on close
}

// Run executes the schedule over the given virtual duration. Each tick:
// due events fire, then adversaries spend their packet budgets (in the
// order they were added), then every live agent's delay queue is stepped,
// then every live directory's timers run. Agents are always visited in
// index order — iteration order is part of the determinism contract.
func (h *Harness) Run(events []Event, duration time.Duration) {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	for elapsed := time.Duration(0); elapsed < duration; {
		elapsed += h.cfg.Tick
		now := h.clk.Advance(h.cfg.Tick)
		for len(evs) > 0 && evs[0].At <= elapsed {
			ev := evs[0]
			evs = evs[1:]
			ev.Do(h)
		}
		for _, adv := range h.advs {
			adv.step(elapsed)
		}
		for _, a := range h.agents {
			if a.alive {
				a.Fault.Step(now)
			}
		}
		for _, a := range h.agents {
			if a.alive {
				a.Dir.Step(now)
			}
		}
	}
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
