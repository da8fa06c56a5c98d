package sim

import (
	"fmt"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/par"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// SteadyStateConfig parameterises one steady-state churn measurement — the
// §2.6 method behind Figures 12 and 13:
//
//  1. allocate n sessions (random source, TTL from the distribution)
//     without regard for clashes;
//  2. re-allocate addresses with the algorithm under test until no clash
//     exists;
//  3. replace n sessions one at a time (remove one at random, allocate a
//     new one), counting address clashes;
//  4. over many repetitions, estimate the probability that at least one
//     clash occurs during the mean session lifetime (= n replacements).
type SteadyStateConfig struct {
	Alloc allocator.Allocator
	Dist  mcast.TTLDistribution
	// Sessions is n, the steady-state population.
	Sessions int
	// UpperBound selects the Figure-13 variant: a replacement keeps the
	// departed session's source and TTL (only the address is fresh),
	// removing workload churn so only the allocator's headroom is tested.
	UpperBound bool
	// Workload overrides the session placement process entirely (the
	// clustering experiment uses CommunityWorkload). nil selects
	// RandomWorkload over Dist, wrapped per UpperBound.
	Workload Workload
	// Workers caps ClashProbability's concurrency across repetitions:
	// 0 means GOMAXPROCS, 1 forces the serial path. Estimates are
	// bit-identical for every worker count (per-rep RNGs are pre-split in
	// submission order). Alloc and Workload are shared across workers and
	// must be immutable, which every implementation in this repo is.
	Workers int
}

// workload resolves the effective Workload for a run over graph g.
func (cfg SteadyStateConfig) workload(g *topology.Graph) Workload {
	if cfg.Workload != nil {
		return cfg.Workload
	}
	var w Workload = RandomWorkload{Graph: g, Dist: cfg.Dist}
	if cfg.UpperBound {
		w = SameSiteWorkload{Inner: w}
	}
	return w
}

// SteadyStateResult is the outcome of one repetition.
type SteadyStateResult struct {
	Clashes   int  // clashes observed during the n replacements
	RepairOK  bool // step 2 reached a clash-free state
	Exhausted bool // an allocation failed outright (space full)
}

// repairPasses bounds step 2's clash-elimination sweeps.
const repairPasses = 20

// RunSteadyStateOnce performs one repetition of the §2.6 method.
func RunSteadyStateOnce(g *topology.Graph, cache *topology.ReachCache, cfg SteadyStateConfig, rng *stats.RNG) SteadyStateResult {
	if cfg.Sessions < 1 {
		panic("sim: SteadyStateConfig.Sessions must be >= 1")
	}
	w := NewWorldWithCache(g, cache)
	load := cfg.workload(g)

	// Step 1: populate without regard for clashes (addresses via the
	// algorithm, which may clash invisibly).
	for i := 0; i < cfg.Sessions; i++ {
		origin, ttl := load.New(rng)
		addr, err := cfg.Alloc.Allocate(w.VisibleAt(origin), ttl, rng)
		if err != nil {
			return SteadyStateResult{Exhausted: true}
		}
		w.Add(origin, ttl, addr)
	}

	// Step 2: repair until clash-free.
	repaired := false
	for pass := 0; pass < repairPasses; pass++ {
		dirty := false
		for i := range w.Len() {
			if w.clashIndex(i) < 0 {
				continue
			}
			dirty = true
			s := w.At(i)
			addr, err := cfg.Alloc.Allocate(w.VisibleAt(s.Origin), s.TTL, rng)
			if err != nil {
				return SteadyStateResult{Exhausted: true}
			}
			w.SetAddr(i, addr)
		}
		if !dirty {
			repaired = true
			break
		}
	}
	if !repaired {
		// Could not reach a clash-free steady state: the space is
		// effectively over-committed at this n.
		return SteadyStateResult{Clashes: cfg.Sessions, RepairOK: false}
	}

	// Step 3: churn.
	clashes := 0
	for i := 0; i < cfg.Sessions; i++ {
		victim := rng.IntN(w.Len())
		departed := w.At(victim)
		w.RemoveAt(victim)
		origin, ttl := load.Replace(departed, rng)
		addr, err := cfg.Alloc.Allocate(w.VisibleAt(origin), ttl, rng)
		if err != nil {
			return SteadyStateResult{Clashes: clashes, RepairOK: true, Exhausted: true}
		}
		if w.Clashes(origin, ttl, addr) {
			clashes++
		}
		w.Add(origin, ttl, addr)
	}
	return SteadyStateResult{Clashes: clashes, RepairOK: true}
}

// ClashProbability estimates P(≥1 clash during n replacements) over reps
// repetitions. Repetitions run in parallel across cfg.Workers goroutines
// sharing the scope cache; the estimate is deterministic for a fixed rng
// state regardless of worker count.
func ClashProbability(g *topology.Graph, cache *topology.ReachCache, cfg SteadyStateConfig, reps int, rng *stats.RNG) float64 {
	if reps < 1 {
		reps = 1
	}
	// Pre-split per-rep RNGs in submission order (identical to the streams
	// a serial loop would draw, since the parent advances only via Split).
	rngs := make([]*stats.RNG, reps)
	for r := range rngs {
		rngs[r] = rng.Split()
	}
	results := make([]SteadyStateResult, reps)
	par.For(cfg.Workers, reps, func(r int) {
		results[r] = RunSteadyStateOnce(g, cache, cfg, rngs[r])
	})
	hits := 0
	for _, res := range results {
		if res.Clashes > 0 || res.Exhausted {
			hits++
		}
	}
	return float64(hits) / float64(reps)
}

// Fig12Point is one datum of the Figure-12/13 curves: the largest session
// population an algorithm sustains at ≤50% clash probability for a given
// address space size.
type Fig12Point struct {
	Algorithm  string
	SpaceSize  uint32
	MaxAllocs  int
	UpperBound bool
}

// Fig12Config drives a Figure-12 (or, with UpperBound, Figure-13) sweep.
type Fig12Config struct {
	Graph      *topology.Graph
	SpaceSizes []uint32
	MakeAlloc  func(size uint32) allocator.Allocator
	Dist       mcast.TTLDistribution
	Reps       int // repetitions per probe (paper: 100)
	UpperBound bool
	// Workload optionally overrides the churn process (see SteadyStateConfig).
	Workload Workload
	Seed     uint64
	// Workers is the engine concurrency for the probe repetitions
	// (see SteadyStateConfig.Workers).
	Workers int
}

// RunFig12 finds, for each space size, the acceptability threshold of §2.6:
// the largest n for which the clash probability during one mean session
// lifetime stays at or below 0.5. The probe sequence mirrors the paper's
// table-plus-median-filter: geometric sweep over n, a 3-point median
// filter over the probability estimates, then the last n below the 0.5
// crossing.
func RunFig12(cfg Fig12Config) []Fig12Point {
	if cfg.Reps < 1 {
		cfg.Reps = 20
	}
	root := stats.NewRNG(cfg.Seed)
	cache := topology.NewReachCache(cfg.Graph)
	var out []Fig12Point
	for _, size := range cfg.SpaceSizes {
		al := cfg.MakeAlloc(size)
		// Geometric probe grid: 8 points per factor of 2 up to the space
		// size (no algorithm can sustain more sessions than addresses
		// without clashing somewhere).
		var grid []int
		for n := 4; n <= int(size); n = n*5/4 + 1 {
			grid = append(grid, n)
		}
		probs := make([]float64, len(grid))
		for i, n := range grid {
			probs[i] = ClashProbability(cfg.Graph, cache, SteadyStateConfig{
				Alloc:      al,
				Dist:       cfg.Dist,
				Sessions:   n,
				UpperBound: cfg.UpperBound,
				Workload:   cfg.Workload,
				Workers:    cfg.Workers,
			}, cfg.Reps, root.Split())
		}
		smoothed := stats.MedianFilter(probs, 3)
		best := 0
		for i, n := range grid {
			if smoothed[i] <= 0.5 {
				best = n
			} else if smoothed[i] > 0.5 && best > 0 {
				break
			}
		}
		out = append(out, Fig12Point{
			Algorithm:  al.Name(),
			SpaceSize:  size,
			MaxAllocs:  best,
			UpperBound: cfg.UpperBound,
		})
	}
	return out
}

// String renders a point as a table row.
func (p Fig12Point) String() string {
	tag := "fig12"
	if p.UpperBound {
		tag = "fig13"
	}
	return fmt.Sprintf("%s %-18s space=%-6d max_allocs=%d", tag, p.Algorithm, p.SpaceSize, p.MaxAllocs)
}
