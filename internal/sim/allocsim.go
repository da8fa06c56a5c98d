// Package sim contains the paper's simulations: address-space fill-up over
// the Mbone topology (Figure 5), the steady-state churn experiments for
// the adaptive allocators (Figures 12 and 13), and the multicast
// request–response suppression protocol (Figures 15, 16 and 19).
//
// The allocation simulations use the same abstraction the paper does: the
// announcement machinery is reduced to *visibility* — a site sees exactly
// the sessions whose scope set contains it (no loss, no delay; §2.2 notes
// this flatters the informed schemes, which is the point of comparison),
// while scoping itself is computed exactly over the topology's TTL
// thresholds and DVMRP routes.
package sim

import (
	"fmt"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/par"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// Session is one live simulated session.
type Session struct {
	Origin topology.NodeID
	TTL    mcast.TTL
	Addr   mcast.Addr
	reach  *topology.NodeSet
}

// World is the state of one allocation simulation: the topology, the scope
// cache and the live session set. A World belongs to a single trial (one
// goroutine); the ReachCache it references may be shared across many
// concurrent worlds.
type World struct {
	Graph    *topology.Graph
	Cache    *topology.ReachCache
	Sessions []Session
	// visScratch backs VisibleAt so the per-allocation hot path does not
	// allocate O(sessions) per step.
	visScratch []allocator.SessionInfo
}

// NewWorld returns an empty world over g with its own private scope cache.
func NewWorld(g *topology.Graph) *World {
	return NewWorldWithCache(g, nil)
}

// NewWorldWithCache returns an empty world over g backed by a shared scope
// cache — the form the parallel experiment engine uses, so every trial of
// a sweep reuses one cache's trees and reach sets instead of recomputing
// them per trial. A nil cache means a private one.
func NewWorldWithCache(g *topology.Graph, cache *topology.ReachCache) *World {
	if cache == nil {
		cache = topology.NewReachCache(g)
	}
	return &World{Graph: g, Cache: cache}
}

// Len returns the live session count.
func (w *World) Len() int { return len(w.Sessions) }

// VisibleAt returns the sessions whose announcements reach the observer,
// in allocator form. The returned slice is backed by a per-world scratch
// buffer: it is valid until the next VisibleAt call on this world and must
// not be retained (the Allocator contract already forbids retention).
func (w *World) VisibleAt(observer topology.NodeID) []allocator.SessionInfo {
	out := w.visScratch[:0]
	sessions := w.Sessions
	for i := range sessions {
		if sessions[i].reach.Contains(observer) {
			out = append(out, allocator.SessionInfo{
				Addr: sessions[i].Addr,
				TTL:  sessions[i].TTL,
			})
		}
	}
	w.visScratch = out
	return out
}

// Clashes reports whether a session at (origin, ttl, addr) clashes with
// any live session: same address and intersecting scope sets, so that
// somewhere in the network both sessions' data would arrive on one group.
func (w *World) Clashes(origin topology.NodeID, ttl mcast.TTL, addr mcast.Addr) bool {
	reach := w.Cache.Reach(origin, ttl)
	for i := range w.Sessions {
		if w.Sessions[i].Addr == addr && w.Sessions[i].reach.Intersects(reach) {
			return true
		}
	}
	return false
}

// clashIndex returns the index of a live session clashing with session i,
// or -1.
func (w *World) clashIndex(i int) int {
	s := &w.Sessions[i]
	for j := range w.Sessions {
		if j == i {
			continue
		}
		if w.Sessions[j].Addr == s.Addr && w.Sessions[j].reach.Intersects(s.reach) {
			return j
		}
	}
	return -1
}

// Add appends a session.
func (w *World) Add(origin topology.NodeID, ttl mcast.TTL, addr mcast.Addr) {
	w.Sessions = append(w.Sessions, Session{
		Origin: origin,
		TTL:    ttl,
		Addr:   addr,
		reach:  w.Cache.Reach(origin, ttl),
	})
}

// RemoveAt deletes session i (order not preserved).
func (w *World) RemoveAt(i int) {
	last := len(w.Sessions) - 1
	w.Sessions[i] = w.Sessions[last]
	w.Sessions = w.Sessions[:last]
}

// FillConfig parameterises a Figure-5 fill-until-clash run.
type FillConfig struct {
	Alloc allocator.Allocator
	Dist  mcast.TTLDistribution
	// MaxSessions caps a run (0 = space size × 4, ample for any algorithm).
	MaxSessions int
}

// FillResult is the outcome of one fill-until-clash run.
type FillResult struct {
	Allocations int  // sessions allocated before the first clash
	SpaceFull   bool // the run ended by exhausting the space, not a clash
}

// FillUntilClash allocates sessions one at a time — random origin, TTL from
// the workload distribution, address from the allocator under test given
// the origin's view — until the first address clash, and returns how many
// succeeded. This is the paper's Figure-5 experiment.
func FillUntilClash(w *World, cfg FillConfig, rng *stats.RNG) FillResult {
	if cfg.Alloc == nil {
		panic("sim: FillConfig.Alloc is required")
	}
	maxSessions := cfg.MaxSessions
	if maxSessions == 0 {
		maxSessions = int(cfg.Alloc.Size()) * 4
	}
	n := w.Graph.NumNodes()
	for count := 0; count < maxSessions; count++ {
		origin := topology.NodeID(rng.IntN(n))
		ttl := cfg.Dist.Sample(rng.IntN)
		visible := w.VisibleAt(origin)
		addr, err := cfg.Alloc.Allocate(visible, ttl, rng)
		if err != nil {
			return FillResult{Allocations: count, SpaceFull: true}
		}
		if w.Clashes(origin, ttl, addr) {
			return FillResult{Allocations: count}
		}
		w.Add(origin, ttl, addr)
	}
	return FillResult{Allocations: maxSessions, SpaceFull: true}
}

// Fig5Point is one datum of the Figure-5 curves.
type Fig5Point struct {
	Algorithm    string
	Dist         string
	SpaceSize    uint32
	MeanAllocs   float64
	StdErr       float64
	Trials       int
	SpaceFullPct float64 // fraction of trials ending in exhaustion
}

// Fig5Config drives a Figure-5 sweep.
type Fig5Config struct {
	Graph      *topology.Graph
	SpaceSizes []uint32
	Dists      []mcast.TTLDistribution
	// MakeAlloc builds the allocator under test for a space size. It must
	// be deterministic (same size → equivalent allocator) and cheap; the
	// parallel engine may call it once per trial.
	MakeAlloc func(size uint32) allocator.Allocator
	Trials    int
	Seed      uint64
	// Workers caps the engine's concurrency: 0 means GOMAXPROCS, 1 forces
	// the serial path. Results are bit-identical for every worker count —
	// trial RNGs are pre-split in submission order and aggregated by index.
	Workers int
}

// RunFig5 sweeps space sizes × distributions for one algorithm, averaging
// allocations-before-clash over trials. Trials run in parallel across
// Workers goroutines sharing one scope cache; output is deterministic for
// a fixed Seed regardless of worker count.
func RunFig5(cfg Fig5Config) []Fig5Point {
	if cfg.Trials < 1 {
		cfg.Trials = 1
	}
	// Pre-split one RNG per trial in the exact order the serial
	// size→dist→trial loop would split them: the parent RNG is advanced
	// only by Split, so the pre-split streams are identical to serial ones.
	type trialTask struct {
		size uint32
		dist mcast.TTLDistribution
		rng  *stats.RNG
	}
	root := stats.NewRNG(cfg.Seed)
	tasks := make([]trialTask, 0, len(cfg.SpaceSizes)*len(cfg.Dists)*cfg.Trials)
	for _, size := range cfg.SpaceSizes {
		for _, dist := range cfg.Dists {
			for trial := 0; trial < cfg.Trials; trial++ {
				tasks = append(tasks, trialTask{size: size, dist: dist, rng: root.Split()})
			}
		}
	}
	cache := topology.NewReachCache(cfg.Graph)
	results := make([]FillResult, len(tasks))
	par.For(cfg.Workers, len(tasks), func(i int) {
		t := tasks[i]
		w := NewWorldWithCache(cfg.Graph, cache)
		al := cfg.MakeAlloc(t.size)
		results[i] = FillUntilClash(w, FillConfig{Alloc: al, Dist: t.dist}, t.rng)
	})
	// Fold per-trial results in submission order, so summary statistics
	// accumulate floats in the same order as a serial run.
	var out []Fig5Point
	i := 0
	for _, size := range cfg.SpaceSizes {
		name := cfg.MakeAlloc(size).Name()
		for _, dist := range cfg.Dists {
			var s stats.Summary
			full := 0
			for trial := 0; trial < cfg.Trials; trial++ {
				res := results[i]
				i++
				s.Add(float64(res.Allocations))
				if res.SpaceFull {
					full++
				}
			}
			out = append(out, Fig5Point{
				Algorithm:    name,
				Dist:         dist.Name,
				SpaceSize:    size,
				MeanAllocs:   s.Mean(),
				StdErr:       s.StdErr(),
				Trials:       cfg.Trials,
				SpaceFullPct: float64(full) / float64(cfg.Trials),
			})
		}
	}
	return out
}

// String renders a point as a table row.
func (p Fig5Point) String() string {
	return fmt.Sprintf("%-18s %-4s space=%-6d mean=%8.1f ±%.1f (n=%d, full=%.0f%%)",
		p.Algorithm, p.Dist, p.SpaceSize, p.MeanAllocs, p.StdErr, p.Trials, p.SpaceFullPct*100)
}
