package sessiondir_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// regenerates its figure at a reduced scale per iteration; run
//
//	go test -bench=. -benchmem
//
// for the whole suite, or `go run ./cmd/mcbench -experiment <id> -full`
// for paper-scale parameter ranges.

import (
	"io"
	"testing"

	"sessiondir/internal/allocator"
	"sessiondir/internal/analytic"
	"sessiondir/internal/clash"
	"sessiondir/internal/experiments"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// benchScale keeps per-iteration cost low while exercising the full path.
func benchScale() experiments.Scale {
	return experiments.Scale{
		Name:          "bench",
		MboneNodes:    250,
		HopSources:    20,
		Fig5Spaces:    []uint32{64, 128},
		Fig5Trials:    3,
		Fig5Dists:     []mcast.TTLDistribution{mcast.DS4()},
		Fig12Spaces:   []uint32{64},
		Fig12Reps:     3,
		RespReceivers: []int{200, 800, 3200},
		RespD2Millis:  []float64{800, 3200, 12800},
		RRGroupSizes:  []int{200},
		RRD2Millis:    []float64{800, 51200},
		RRTrials:      1,
		Seed:          1998,
	}
}

func benchRunner(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01PartitionPDF(b *testing.B)      { benchRunner(b, "fig1") }
func BenchmarkFig04Birthday(b *testing.B)          { benchRunner(b, "fig4") }
func BenchmarkFig05FillUntilClash(b *testing.B)    { benchRunner(b, "fig5") }
func BenchmarkFig06Equation1(b *testing.B)         { benchRunner(b, "fig6") }
func BenchmarkFig08DAIPRLayout(b *testing.B)       { benchRunner(b, "fig8") }
func BenchmarkFig10HopHistogram(b *testing.B)      { benchRunner(b, "fig10") }
func BenchmarkFig11PartitionMap(b *testing.B)      { benchRunner(b, "fig11") }
func BenchmarkFig12SteadyState(b *testing.B)       { benchRunner(b, "fig12") }
func BenchmarkFig13UpperBound(b *testing.B)        { benchRunner(b, "fig13") }
func BenchmarkFig14UniformResponders(b *testing.B) { benchRunner(b, "fig14") }
func BenchmarkFig15ReqRespSim(b *testing.B)        { benchRunner(b, "fig15") }
func BenchmarkFig18ExpResponders(b *testing.B)     { benchRunner(b, "fig18") }
func BenchmarkTTLTable(b *testing.B)               { benchRunner(b, "ttltable") }

// --- Ablation benches (design choices from DESIGN.md §5) ---

func benchSteadyState(b *testing.B, mk func(size uint32) allocator.Allocator) {
	b.Helper()
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 250}, stats.NewRNG(3))
	if err != nil {
		b.Fatal(err)
	}
	cache := topology.NewReachCache(g)
	rng := stats.NewRNG(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := sim.RunSteadyStateOnce(g, cache, sim.SteadyStateConfig{
			Alloc:    mk(128),
			Dist:     mcast.DS4(),
			Sessions: 40,
		}, rng.Split())
		if res.Exhausted {
			b.Fatal("space exhausted at bench scale")
		}
	}
}

func BenchmarkAblationGapFraction20(b *testing.B) {
	benchSteadyState(b, func(size uint32) allocator.Allocator {
		return allocator.NewAdaptive(size, allocator.AdaptiveConfig{GapFraction: 0.2})
	})
}

func BenchmarkAblationGapFraction60(b *testing.B) {
	benchSteadyState(b, func(size uint32) allocator.Allocator {
		return allocator.NewAdaptive(size, allocator.AdaptiveConfig{GapFraction: 0.6})
	})
}

func BenchmarkAblationOccupancy50(b *testing.B) {
	benchSteadyState(b, func(size uint32) allocator.Allocator {
		return allocator.NewAdaptive(size, allocator.AdaptiveConfig{GapFraction: 0.2, TargetOccupancy: 0.5})
	})
}

func BenchmarkAblationOccupancy99(b *testing.B) {
	benchSteadyState(b, func(size uint32) allocator.Allocator {
		return allocator.NewAdaptive(size, allocator.AdaptiveConfig{GapFraction: 0.2, TargetOccupancy: 0.99})
	})
}

func BenchmarkAblationMargin1(b *testing.B) {
	benchSteadyState(b, func(size uint32) allocator.Allocator {
		return allocator.NewAdaptive(size, allocator.AdaptiveConfig{GapFraction: 0.2, Margin: 1})
	})
}

func BenchmarkAblationMargin4(b *testing.B) {
	benchSteadyState(b, func(size uint32) allocator.Allocator {
		return allocator.NewAdaptive(size, allocator.AdaptiveConfig{GapFraction: 0.2, Margin: 4})
	})
}

func BenchmarkAblationBackoffPacking(b *testing.B) {
	// Announcement schedule → discovery delay → invisible fraction →
	// Equation-1 packing. Pure computation, the knob the paper's §4 turns.
	for i := 0; i < b.N; i++ {
		delay := analytic.MeanDiscoveryDelay(0.02, 0.2, 5)
		i1 := analytic.InvisibleFraction(delay, 4*3600)
		_ = analytic.AllocationsAtHalf(8192, i1)
	}
}

// --- Core operation micro-benches ---

func BenchmarkAllocateAdaptive(b *testing.B) {
	a := allocator.NewAdaptive(4096, allocator.AdaptiveConfig{GapFraction: 0.2})
	rng := stats.NewRNG(5)
	d := mcast.DS4()
	var view []allocator.SessionInfo
	for i := 0; i < 500; i++ {
		view = append(view, allocator.SessionInfo{
			Addr: mcast.Addr(rng.IntN(4096)),
			TTL:  d.Sample(rng.IntN),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Allocate(view, 127, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllocateInformedRandom(b *testing.B) {
	a := allocator.NewInformedRandom(4096)
	rng := stats.NewRNG(5)
	var view []allocator.SessionInfo
	for i := 0; i < 500; i++ {
		view = append(view, allocator.SessionInfo{Addr: mcast.Addr(rng.IntN(4096)), TTL: 63})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Allocate(view, 63, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReachComputation(b *testing.B) {
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 1864}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	tree := topology.NewSPTree(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topology.Reach(g, tree, 127)
	}
}

func BenchmarkExpDelaySample(b *testing.B) {
	d := clash.NewExponentialDelay(0, 3200, 200)
	rng := stats.NewRNG(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(rng)
	}
}
