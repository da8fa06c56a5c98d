package experiments

import (
	"fmt"
	"io"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
	"sessiondir/internal/topology"
)

// occAlgorithms are the occupancy sweep's algorithms: the informed-random
// baseline and the adaptive hybrid the daemon ships with. The sweep is a
// scale gate, not a Figure-5 reprise, so two suffice.
var occAlgorithms = []string{"IR", "AIPR-H (hybrid)"}

// OccupancyConfigs expands a Scale into the occupancy run matrix
// (algorithm × resident target) over one shared topology and reach
// cache. Exposed so mcbench can time and record each run individually;
// the runner below executes the same configs in the same order.
func OccupancyConfigs(s Scale) ([]sim.OccupancyConfig, error) {
	g, err := mbone(s)
	if err != nil {
		return nil, err
	}
	cache := topology.NewReachCache(g)
	var cfgs []sim.OccupancyConfig
	for _, name := range occAlgorithms {
		for _, sessions := range s.OccSessions {
			alloc, err := allocator.ByName(s.OccSpace, name)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, sim.OccupancyConfig{
				Graph:    g,
				Cache:    cache,
				Alloc:    alloc,
				Dist:     mcast.DS4(),
				Sessions: sessions,
				Seed:     s.Seed,
			})
		}
	}
	return cfgs, nil
}

// RunOccupancySweep regenerates the directory-scale occupancy runs: fill
// the session set to each resident target, then churn replacements
// through it, reporting clash rates and final occupancy. This is the
// perf tier behind mcbench -full — quick scale keeps it to thousands of
// sessions, full scale drives the 100k-session runs the nightly gate
// budgets.
func RunOccupancySweep(w io.Writer, s Scale) error {
	cfgs, err := OccupancyConfigs(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Occupancy: fill + churn at directory scale (Mbone %d nodes, space %d)\n",
		s.MboneNodes, s.OccSpace)
	for _, cfg := range cfgs {
		fmt.Fprintln(w, sim.RunOccupancy(cfg).String())
	}
	return nil
}
