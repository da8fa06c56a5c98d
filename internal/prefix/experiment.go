package prefix

import (
	"fmt"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// This file is the §4.1 experiment harness: hierarchical (prefix + local)
// allocation versus flat global allocation under session churn. The two
// schemes share a space and a workload; they differ in announcement
// timeliness, which the paper's analysis reduces to the invisible
// fraction i:
//
//   - flat: one global, bandwidth-limited announcement channel → large i;
//   - hierarchical: usage announcements are regional (more frequent over
//     shorter paths) → small local i, plus a slow prefix layer whose own
//     invisible fraction is tiny because claims change on much longer
//     timescales.

// ExperimentConfig parameterises one comparison run.
type ExperimentConfig struct {
	SpaceSize uint32
	BlockSize uint32
	Regions   int
	// SessionsPerRegion is the steady-state population per region.
	SessionsPerRegion int
	// Churns is how many replace-one operations to simulate per region.
	Churns int
	// InvisibleFlat is i for the flat global scheme (paper §2.3: ≈1e-3
	// with a 10-minute constant announcement interval).
	InvisibleFlat float64
	// InvisibleLocal is i for regional usage announcements (more frequent,
	// shorter paths: one to two orders of magnitude smaller).
	InvisibleLocal float64
	// InvisiblePrefix is the chance a foreign *claim* is unseen at claim
	// time (tiny: claims persist and change slowly).
	InvisiblePrefix float64
	// ListenTicks is the claim listen period.
	ListenTicks int64
	Seed        uint64
}

// Result summarises one comparison.
type Result struct {
	FlatClashes        int
	HierLocalClashes   int
	PrefixCollisions   int // resolved harmlessly by the claim protocol
	FlatAllocations    int
	HierAllocations    int
	HierBlocksClaimed  int
	HierUtilisationPct float64 // sessions / addresses held
}

// String renders the result as experiment output rows.
func (r Result) String() string {
	return fmt.Sprintf(
		"flat:  %6d allocations, %4d clashes\nhier:  %6d allocations, %4d clashes, %d prefix collisions (resolved), %d blocks, %.0f%% block utilisation",
		r.FlatAllocations, r.FlatClashes,
		r.HierAllocations, r.HierLocalClashes, r.PrefixCollisions, r.HierBlocksClaimed,
		r.HierUtilisationPct)
}

// RunExperiment simulates both schemes over the same workload.
func RunExperiment(cfg ExperimentConfig) (Result, error) {
	if cfg.Regions < 1 || cfg.SessionsPerRegion < 1 {
		return Result{}, fmt.Errorf("prefix: degenerate experiment config %+v", cfg)
	}
	rng := stats.NewRNG(cfg.Seed)
	var res Result

	// ---- Flat scheme: one shared space, global invisible fraction. ----
	{
		used := map[mcast.Addr]bool{}
		var live []mcast.Addr
		space := []Block{{Start: 0, Size: cfg.SpaceSize}}
		alloc := func() {
			a, clash, ok := informedPick(space, used, cfg.InvisibleFlat, rng)
			if !ok {
				return
			}
			if clash {
				res.FlatClashes++
			}
			live = append(live, a)
			res.FlatAllocations++
		}
		total := cfg.Regions * cfg.SessionsPerRegion
		for i := 0; i < total; i++ {
			alloc()
		}
		for c := 0; c < cfg.Churns*cfg.Regions; c++ {
			if len(live) == 0 {
				break
			}
			i := rng.IntN(len(live))
			delete(used, live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			alloc()
		}
	}

	// ---- Hierarchical scheme. ----
	pool, err := NewPool(PoolConfig{
		SpaceSize:   cfg.SpaceSize,
		BlockSize:   cfg.BlockSize,
		ListenTicks: cfg.ListenTicks,
		Regions:     cfg.Regions,
	})
	if err != nil {
		return Result{}, err
	}
	regions := make([]*RegionAllocator, cfg.Regions)
	for i := range regions {
		regions[i] = NewRegionAllocator(pool, i)
	}
	now := int64(0)
	// ensure acquires blocks for a region until it can hold want sessions
	// at 67% occupancy, driving the claim protocol through its listen
	// period (claims only become usable after ListenTicks).
	ensure := func(r *RegionAllocator, want int) {
		need := uint32(float64(want)/0.67) + 1
		for r.Holdings() < need {
			claim := pool.ClaimBlock(r.Region, now, cfg.InvisiblePrefix, rng)
			if claim == nil {
				return // space exhausted at the prefix layer
			}
			// Run the listen period.
			for t := int64(0); t <= cfg.ListenTicks; t++ {
				now++
				res.PrefixCollisions += pool.Tick(now)
			}
		}
	}
	var liveByRegion [][]mcast.Addr
	liveByRegion = make([][]mcast.Addr, cfg.Regions)
	allocIn := func(ri int) {
		r := regions[ri]
		ensure(r, r.InUse()+1)
		a, clash, err := r.Allocate(cfg.InvisibleLocal, rng)
		if err != nil {
			return
		}
		if clash {
			res.HierLocalClashes++
		}
		liveByRegion[ri] = append(liveByRegion[ri], a)
		res.HierAllocations++
	}
	for ri := 0; ri < cfg.Regions; ri++ {
		for i := 0; i < cfg.SessionsPerRegion; i++ {
			allocIn(ri)
		}
	}
	for c := 0; c < cfg.Churns*cfg.Regions; c++ {
		ri := rng.IntN(cfg.Regions)
		if len(liveByRegion[ri]) == 0 {
			continue
		}
		li := rng.IntN(len(liveByRegion[ri]))
		regions[ri].Free(liveByRegion[ri][li])
		liveByRegion[ri][li] = liveByRegion[ri][len(liveByRegion[ri])-1]
		liveByRegion[ri] = liveByRegion[ri][:len(liveByRegion[ri])-1]
		allocIn(ri)
	}
	if err := pool.Invariant(); err != nil {
		return Result{}, err
	}
	var held uint32
	var sessions int
	for ri, r := range regions {
		held += r.Holdings()
		sessions += len(liveByRegion[ri])
		res.HierBlocksClaimed += len(pool.ActiveBlocks(ri))
	}
	if held > 0 {
		res.HierUtilisationPct = 100 * float64(sessions) / float64(held)
	}
	return res, nil
}
