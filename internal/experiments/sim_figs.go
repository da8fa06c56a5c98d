package experiments

import (
	"fmt"
	"io"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
	"sessiondir/internal/topology"
)

// The algorithms each figure compares, by allocator.ByName name, in the
// order their rows print.
var (
	fig5Algorithms  = []string{"R", "IR", "IPR 3-band", "IPR 7-band"}
	fig12Algorithms = []string{"AIPR-1 (20% gap)", "AIPR-2 (50% gap)", "AIPR-3 (60% gap)", "AIPR-4 (70% gap)",
		"AIPR-H (hybrid)", "IPR 3-band", "IPR 7-band"}
	// The paper plots AIPR-1, AIPR-2 and the two static schemes.
	fig13Algorithms = []string{"AIPR-1 (20% gap)", "AIPR-2 (50% gap)", "IPR 3-band", "IPR 7-band"}
)

// algorithm returns the factory of a catalog algorithm, in the form the
// sweeps take it.
func algorithm(name string) func(size uint32) allocator.Allocator {
	return func(size uint32) allocator.Allocator {
		a, err := allocator.ByName(size, name)
		if err != nil {
			panic(err) // a name in this package that the catalog lacks
		}
		return a
	}
}

// RunFig5 regenerates Figure 5: allocations before the first clash for
// R / IR / IPR 3-band / IPR 7-band across the ds1–ds4 TTL workloads on the
// Mbone topology.
func RunFig5(w io.Writer, s Scale) error {
	g, err := mbone(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# Figure 5: allocations before clash (Mbone %d nodes, %d trials)\n",
		g.NumNodes(), s.Fig5Trials)
	for _, name := range fig5Algorithms {
		pts := sim.RunFig5(sim.Fig5Config{
			Graph:      g,
			SpaceSizes: s.Fig5Spaces,
			Dists:      s.Fig5Dists,
			MakeAlloc:  algorithm(name),
			Trials:     s.Fig5Trials,
			Seed:       s.Seed,
		})
		for _, p := range pts {
			fmt.Fprintln(w, p.String())
		}
	}
	return nil
}

// RunFig10 regenerates Figure 10: the normalised hop-count histograms per
// TTL scope over the Mbone.
func RunFig10(w io.Writer, s Scale) error {
	g, err := mbone(s)
	if err != nil {
		return err
	}
	sources := sampleSources(g, s.HopSources, s.Seed)
	fmt.Fprintf(w, "# Figure 10: hop-count distribution (Mbone %d nodes)\n", g.NumNodes())
	ttls := []mcast.TTL{15, 47, 63, 127}
	hs, _ := topology.HopHistograms(g, ttls, sources)
	for i, h := range hs {
		fmt.Fprintf(w, "TTL=%d:", ttls[i])
		for _, bin := range h.Normalized() {
			fmt.Fprintf(w, " %d:%.3f", bin.Value, bin.Fraction)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunTTLTable regenerates the §2.4.1 table: most frequent and maximum hop
// count per TTL scope.
func RunTTLTable(w io.Writer, s Scale) error {
	g, err := mbone(s)
	if err != nil {
		return err
	}
	sources := sampleSources(g, s.HopSources, s.Seed)
	fmt.Fprintln(w, "# §2.4.1 table: hop counts per TTL scope")
	fmt.Fprintln(w, "# TTL  mostfreq  mean   max   usage")
	usage := map[mcast.TTL]string{
		127: "Intercontinental", 63: "International", 47: "National", 16: "Local",
	}
	rows, diameter := topology.HopStatsForTTLs(g, []mcast.TTL{127, 63, 47, 16}, sources)
	for _, row := range rows {
		fmt.Fprintf(w, "%5d  %8d  %5.1f  %4d  %s\n",
			row.TTL, row.MostFrequentHop, row.MeanHop, row.MaxHop, usage[row.TTL])
	}
	fmt.Fprintf(w, "# network diameter (hops): %d (DVMRP infinity is 32)\n", diameter)
	return nil
}

// RunFig12 regenerates Figure 12: steady-state sustainable populations.
func RunFig12(w io.Writer, s Scale) error { return runFig12(w, s, fig12Algorithms, false) }

// RunFig13 regenerates Figure 13: the same-source/same-TTL upper bound.
func RunFig13(w io.Writer, s Scale) error { return runFig12(w, s, fig13Algorithms, true) }

func runFig12(w io.Writer, s Scale, algorithms []string, upper bool) error {
	g, err := mbone(s)
	if err != nil {
		return err
	}
	tag := "Figure 12 (steady-state churn)"
	if upper {
		tag = "Figure 13 (upper bound)"
	}
	fmt.Fprintf(w, "# %s: max sessions at ≤50%% clash probability, DS4, %d reps\n", tag, s.Fig12Reps)
	for _, name := range algorithms {
		pts := sim.RunFig12(sim.Fig12Config{
			Graph:      g,
			SpaceSizes: s.Fig12Spaces,
			MakeAlloc:  algorithm(name),
			Dist:       mcast.DS4(),
			Reps:       s.Fig12Reps,
			UpperBound: upper,
			Seed:       s.Seed,
		})
		for _, p := range pts {
			fmt.Fprintln(w, p.String())
		}
	}
	return nil
}

// RunFig15 regenerates Figures 15, 16 and 19 from one set of
// request–response sweeps over the same group sizes and D2 windows:
//
//   - A: SPT, delay ≈ distance;
//   - B: shared tree, delay ≈ distance;
//   - C: SPT + jitter;
//   - D: shared tree + jitter;
//   - E: shared tree with exponentially distributed response delays.
//
// Figure 15 plots the responder counts of A–D, Figure 16 the
// first-response delays of A, and Figure 19 responses against
// first-response delay for uniform (B) and exponential (E) delays.
func RunFig15(w io.Writer, s Scale) error {
	sweep := func(mode sim.TreeMode, jitter, exp bool) ([]sim.Fig15Point, error) {
		return sim.RunFig15(sim.Fig15Config{
			GroupSizes: s.RRGroupSizes,
			D2Millis:   s.RRD2Millis,
			Mode:       mode,
			Jitter:     jitter,
			Exp:        exp,
			Trials:     s.RRTrials,
			Seed:       s.Seed,
		})
	}

	fmt.Fprintln(w, "# Figure 15: simulated request-response responders (uniform delay)")
	variants := []struct {
		label  string
		mode   sim.TreeMode
		jitter bool
	}{
		{"A: spt,   delay~distance", sim.ShortestPathTree, false},
		{"B: shared, delay~distance", sim.SharedTree, false},
		{"C: spt,   distance+random", sim.ShortestPathTree, true},
		{"D: shared, distance+random", sim.SharedTree, true},
	}
	pts := make([][]sim.Fig15Point, len(variants))
	for i, v := range variants {
		fmt.Fprintf(w, "## %s\n", v.label)
		var err error
		if pts[i], err = sweep(v.mode, v.jitter, false); err != nil {
			return err
		}
		for _, p := range pts[i] {
			fmt.Fprintln(w, p.String())
		}
	}

	fmt.Fprintln(w, "\n# Figure 16: first-response delay (spt, uniform delay)")
	for _, p := range pts[0] {
		fmt.Fprintf(w, "D2=%-10.0f n=%-6d mean_first=%9.1fms max_first=%9.1fms\n",
			p.D2Millis, p.GroupSize, p.MeanFirstMs, p.MaxFirstMs)
	}

	exponential, err := sweep(sim.SharedTree, false, true)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n# Figure 19: responses vs first-response delay")
	for _, c := range []struct {
		label string
		pts   []sim.Fig15Point
	}{{"uniform", pts[1]}, {"exponential", exponential}} {
		fmt.Fprintf(w, "## %s random delay\n", c.label)
		for _, p := range c.pts {
			fmt.Fprintf(w, "D2=%-10.0f n=%-6d responses=%8.2f first=%8.3fs\n",
				p.D2Millis, p.GroupSize, p.MeanResponses, p.MeanFirstMs/1000)
		}
	}
	return nil
}
