package sim

import (
	"fmt"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// PartitionedWorld is World under the name benchmark/simscript.go compiles
// against. It exists for benchmark/ only and goes with the benchmark PR
// that re-points the probes (ROADMAP item 4).
type PartitionedWorld = World

// NewPartitionedWorld returns an empty World over g (nil cache = a private
// one); the last two arguments, once a partition and a worker count, are
// ignored. Like PartitionedWorld it exists for benchmark/ only and goes
// with the same benchmark PR.
func NewPartitionedWorld(g *topology.Graph, cache *topology.ReachCache, _, _ int) *World {
	return NewWorldWithCache(g, cache)
}

// OccupancyConfig drives one occupancy run: fill the world to a resident
// session target (Figure-5 shape, but sessions persist past their first
// clash — at directory scale a clash is a protocol event, not the end of
// the experiment), then churn replacements through the full world
// (Figure-12 shape at fixed high occupancy).
type OccupancyConfig struct {
	Graph *topology.Graph
	// Cache optionally shares reach sets across runs (nil = private).
	Cache *topology.ReachCache
	Alloc allocator.Allocator
	Dist  mcast.TTLDistribution
	// Sessions is the resident target (the scale claim's 100k+).
	Sessions int
	// Churn is the number of remove-and-replace operations after fill
	// (0 = Sessions/10).
	Churn int
	Seed  uint64
}

// OccupancyResult is the outcome of one occupancy run.
type OccupancyResult struct {
	Algorithm    string
	Sessions     int     // configured resident target
	SpaceSize    uint32  // the allocator's address space
	Placed       int     // sessions resident after the fill phase
	FillClashes  int     // clashing placements during fill
	ChurnClashes int     // clashing placements during churn
	Exhausted    int     // allocation failures (space exhausted for that view)
	Occupancy    float64 // resident sessions / address space at end of fill
}

// RunOccupancy executes one occupancy run. Deterministic for a fixed Seed.
func RunOccupancy(cfg OccupancyConfig) OccupancyResult {
	if cfg.Alloc == nil {
		panic("sim: OccupancyConfig.Alloc is required")
	}
	if cfg.Sessions < 1 {
		cfg.Sessions = 1
	}
	if cfg.Churn == 0 {
		cfg.Churn = cfg.Sessions / 10
	}
	rng := stats.NewRNG(cfg.Seed)
	w := NewWorldWithCache(cfg.Graph, cfg.Cache)
	n := cfg.Graph.NumNodes()
	res := OccupancyResult{
		Algorithm: cfg.Alloc.Name(),
		Sessions:  cfg.Sessions,
		SpaceSize: cfg.Alloc.Size(),
	}

	place := func(clashes *int) {
		origin := topology.NodeID(rng.IntN(n))
		ttl := cfg.Dist.Sample(rng.IntN)
		visible := w.VisibleAt(origin)
		addr, err := cfg.Alloc.Allocate(visible, ttl, rng)
		if err != nil {
			res.Exhausted++
			return
		}
		if w.Clashes(origin, ttl, addr) {
			*clashes++
		}
		w.Add(origin, ttl, addr)
	}

	for k := 0; k < cfg.Sessions; k++ {
		place(&res.FillClashes)
	}
	res.Placed = w.Len()
	res.Occupancy = float64(w.Len()) / float64(cfg.Alloc.Size())

	for j := 0; j < cfg.Churn && w.Len() > 0; j++ {
		w.RemoveAt(rng.IntN(w.Len()))
		place(&res.ChurnClashes)
	}
	return res
}

// String renders a result as a table row.
func (r OccupancyResult) String() string {
	return fmt.Sprintf("%-18s sessions=%-7d space=%-7d placed=%-7d occ=%5.1f%% fill-clash=%-6d churn-clash=%-6d exhausted=%d",
		r.Algorithm, r.Sessions, r.SpaceSize, r.Placed,
		r.Occupancy*100, r.FillClashes, r.ChurnClashes, r.Exhausted)
}
