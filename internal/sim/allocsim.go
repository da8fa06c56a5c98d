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
}

// RunFig5 sweeps space sizes × distributions for one algorithm, averaging
// allocations-before-clash over trials. Trials run in parallel across
// GOMAXPROCS goroutines sharing one scope cache; output is deterministic
// for a fixed Seed regardless of GOMAXPROCS — trial RNGs are pre-split in
// submission order and aggregated by index.
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
	par.For(len(tasks), func(i int) {
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
