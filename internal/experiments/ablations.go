package experiments

import (
	"fmt"
	"io"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/analytic"
	"sessiondir/internal/announce"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
)

// RunAblations measures the design choices DESIGN.md calls out:
//
//   - the inter-band gap fraction (the AIPR-1..4 sweep, extended);
//   - the 67% target band occupancy;
//   - the partition-map margin of safety;
//   - the announcement back-off schedule's effect on the invisible
//     fraction i, and through Equation 1 on address-space packing.
func RunAblations(w io.Writer, s Scale) error {
	g, err := mbone(s)
	if err != nil {
		return err
	}
	space := s.Fig12Spaces[len(s.Fig12Spaces)-1]

	fmt.Fprintln(w, "# Ablation 1: inter-band gap fraction (steady-state max sessions)")
	for _, gap := range []float64{0.0, 0.2, 0.4, 0.6, 0.8} {
		gap := gap
		pts := sim.RunFig12(sim.Fig12Config{
			Graph:      g,
			SpaceSizes: []uint32{space},
			MakeAlloc: func(size uint32) allocator.Allocator {
				return allocator.NewAdaptive(size, allocator.AdaptiveConfig{
					GapFraction: gap,
					Name:        fmt.Sprintf("AIPR gap=%.0f%%", gap*100),
				})
			},
			Dist: mcast.DS4(),
			Reps: s.Fig12Reps,
			Seed: s.Seed,
		})
		fmt.Fprintf(w, "gap=%.0f%%  space=%d  max_allocs=%d\n", gap*100, space, pts[0].MaxAllocs)
	}

	fmt.Fprintln(w, "# Ablation 2: target band occupancy")
	for _, occ := range []float64{0.5, 0.67, 0.85, 0.99} {
		occ := occ
		pts := sim.RunFig12(sim.Fig12Config{
			Graph:      g,
			SpaceSizes: []uint32{space},
			MakeAlloc: func(size uint32) allocator.Allocator {
				return allocator.NewAdaptive(size, allocator.AdaptiveConfig{
					GapFraction:     0.2,
					TargetOccupancy: occ,
					Name:            fmt.Sprintf("AIPR occ=%.0f%%", occ*100),
				})
			},
			Dist: mcast.DS4(),
			Reps: s.Fig12Reps,
			Seed: s.Seed,
		})
		fmt.Fprintf(w, "occupancy=%.0f%%  space=%d  max_allocs=%d\n", occ*100, space, pts[0].MaxAllocs)
	}

	fmt.Fprintln(w, "# Ablation 3: partition-map margin of safety")
	for _, margin := range []int{1, 2, 4} {
		margin := margin
		pts := sim.RunFig12(sim.Fig12Config{
			Graph:      g,
			SpaceSizes: []uint32{space},
			MakeAlloc: func(size uint32) allocator.Allocator {
				return allocator.NewAdaptive(size, allocator.AdaptiveConfig{
					GapFraction: 0.2,
					Margin:      margin,
					Name:        fmt.Sprintf("AIPR margin=%d", margin),
				})
			},
			Dist: mcast.DS4(),
			Reps: s.Fig12Reps,
			Seed: s.Seed,
		})
		fmt.Fprintf(w, "margin=%d (%d partitions)  space=%d  max_allocs=%d\n",
			margin, analytic.PartitionCount(margin), space, pts[0].MaxAllocs)
	}

	fmt.Fprintln(w, "# Ablation 4: announcement schedule → invisible fraction → packing")
	fmt.Fprintln(w, "# schedule           mean_discovery  i(4h life)   allocs@50% (space 8192)")
	schedules := []struct {
		name string
		b    announce.Backoff
	}{
		{"constant 10min", announce.Backoff{Initial: 600 * time.Second, Factor: 1, Steady: 600 * time.Second}},
		{"constant 60s", announce.Backoff{Initial: 60 * time.Second, Factor: 1, Steady: 60 * time.Second}},
		{"exp 5s->10min", announce.DefaultBackoff(600 * time.Second)},
		{"exp 5s->300s", announce.DefaultBackoff(300 * time.Second)},
	}
	for _, sch := range schedules {
		delay := sch.b.MeanDiscoveryDelay(0.02, 0.2)
		i := analytic.InvisibleFraction(delay, 4*3600)
		m := analytic.AllocationsAtHalf(8192, i)
		fmt.Fprintf(w, "%-20s %10.2fs    %10.6f  %10d\n", sch.name, delay, i, m)
	}
	// The inverse question: to pack 67% of an 8192-address partition, how
	// good must the announcement mechanism be?
	need := analytic.RequiredInvisibleFraction(8192, 8192*2/3)
	fmt.Fprintf(w, "# to sustain 67%% occupancy of 8192 addresses, i must stay below %.6f\n", need)
	return nil
}
