// Mbonesim: a scaled-down run of the paper's Figure-5 experiment with
// commentary. It builds the synthetic Mbone, then fills the address space
// with scoped sessions under each allocation algorithm until the first
// clash, showing why informed-random barely beats pure random once
// sessions are scoped, and why partitioning wins.
package main

import (
	"fmt"
	"log"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

func main() {
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 800}, stats.NewRNG(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic Mbone: %d routers, %d links\n", g.NumNodes(), g.NumLinks())

	const space = 512
	const trials = 20
	algorithms := []allocator.Allocator{
		allocator.NewRandom(space),
		allocator.NewInformedRandom(space),
		allocator.NewStaticPartitioned(space, allocator.IPR3Separators()),
		allocator.NewStaticPartitioned(space, allocator.IPR7Separators()),
		allocator.NewAdaptive(space, allocator.AdaptiveConfig{GapFraction: 0.2, Name: "AIPR-1 (20% gap)"}),
	}

	fmt.Printf("\nworkload ds4 (mostly local sessions), space of %d addresses, %d trials:\n\n", space, trials)
	fmt.Printf("%-20s %s\n", "algorithm", "mean allocations before first clash")
	root := stats.NewRNG(7)
	cache := topology.NewReachCache(g) // one set of scopes for every trial
	for _, alg := range algorithms {
		var s stats.Summary
		for i := 0; i < trials; i++ {
			w := sim.NewWorldWithCache(g, cache)
			res := sim.FillUntilClash(w, sim.FillConfig{Alloc: alg, Dist: mcast.DS4()}, root.Split())
			s.Add(float64(res.Allocations))
		}
		fmt.Printf("%-20s %8.1f  ±%.1f\n", alg.Name(), s.Mean(), s.StdErr())
	}

	fmt.Println(`
reading the numbers (paper, Figure 5):
  - R and IR land close together: scoping hides exactly the sessions an
    informed allocator would need to see, so listening barely helps;
  - IPR 3-band improves on IR but TTLs 15..63 share a band, so the
    Figure-3 boundary inconsistency still produces clashes;
  - IPR 7-band (perfect partitioning) and adaptive IPRMA allocate a
    number of addresses that scales with the space, not with its root.`)
}
