package experiments

import (
	"fmt"
	"io"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
)

// RunClustering tests the paper's §2.6 postulate: the steady-state
// simulation's fully random churn (origins and TTLs redrawn every
// replacement) exaggerates the variation adaptive schemes must absorb; in
// reality communities keep using the same scope from the same place, so
// smaller inter-band gaps should suffice. The experiment reruns the
// Figure-12 measurement under a community-structured workload and
// compares sustained session counts per gap fraction.
func RunClustering(w io.Writer, s Scale) error {
	g, err := mbone(s)
	if err != nil {
		return err
	}
	comms, err := sim.CommunitiesFromCountries(g)
	if err != nil {
		return err
	}
	cw, err := sim.NewCommunityWorkload(comms)
	if err != nil {
		return err
	}
	space := s.Fig12Spaces[len(s.Fig12Spaces)-1]
	fmt.Fprintf(w, "# §2.6 clustering postulate: sustained sessions at ≤50%% clash probability\n")
	fmt.Fprintf(w, "# space=%d, %d communities, %d reps\n", space, len(comms), s.Fig12Reps)
	fmt.Fprintln(w, "# gap    random_churn   community_churn")
	for _, gap := range []float64{0.2, 0.6} {
		gap := gap
		mk := func(size uint32) allocator.Allocator {
			return allocator.NewAdaptive(size, allocator.AdaptiveConfig{
				GapFraction: gap,
				Name:        fmt.Sprintf("AIPR gap=%.0f%%", gap*100),
			})
		}
		random := sim.RunFig12(sim.Fig12Config{
			Graph: g, SpaceSizes: []uint32{space}, MakeAlloc: mk,
			Dist: mcast.DS4(), Reps: s.Fig12Reps, Seed: s.Seed,
		})
		clustered := sim.RunFig12(sim.Fig12Config{
			Graph: g, SpaceSizes: []uint32{space}, MakeAlloc: mk,
			Dist: mcast.DS4(), Reps: s.Fig12Reps, Workload: cw, Seed: s.Seed,
		})
		fmt.Fprintf(w, "%4.0f%%   %12d   %15d\n",
			gap*100, random[0].MaxAllocs, clustered[0].MaxAllocs)
	}
	fmt.Fprintln(w, "# stable communities reduce the variation the gaps must absorb (§2.6)")
	return nil
}
