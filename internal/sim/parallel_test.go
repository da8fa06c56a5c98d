package sim

import (
	"reflect"
	"runtime"
	"testing"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

func parallelTestGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 120}, stats.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// matchesSerial runs run with GOMAXPROCS at 1, then at 2, 4 and 8, fails
// t if a parallel result differs from the serial one, and restores
// GOMAXPROCS afterwards. No test in this package is t.Parallel, so nothing
// else runs while GOMAXPROCS is changed.
func matchesSerial[T any](t *testing.T, run func() T) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	serial := run()
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		if got := run(); !reflect.DeepEqual(got, serial) {
			t.Fatalf("GOMAXPROCS=%d diverges from serial:\n got  %+v\n want %+v", procs, got, serial)
		}
	}
}

// The parallel engine's contract: RunFig5 output is bit-identical at any
// GOMAXPROCS because per-trial RNGs are pre-split in submission order and
// summaries are folded serially by index.
func TestRunFig5ParallelMatchesSerial(t *testing.T) {
	g := parallelTestGraph(t)
	matchesSerial(t, func() []Fig5Point {
		return RunFig5(Fig5Config{
			Graph:      g,
			SpaceSizes: []uint32{50, 100},
			Dists:      []mcast.TTLDistribution{mcast.DS1(), mcast.DS4()},
			MakeAlloc:  func(size uint32) allocator.Allocator { return allocator.NewInformedRandom(size) },
			Trials:     6,
			Seed:       1998,
		})
	})
}

// Same contract for the steady-state estimator behind Figures 12/13.
func TestClashProbabilityParallelMatchesSerial(t *testing.T) {
	g := parallelTestGraph(t)
	cache := topology.NewReachCache(g)
	matchesSerial(t, func() float64 {
		return ClashProbability(g, cache, SteadyStateConfig{
			Alloc:    allocator.NewHybrid(100),
			Dist:     mcast.DS4(),
			Sessions: 30,
		}, 12, stats.NewRNG(77))
	})
}

// And for the full Figure-12 sweep, which nests ClashProbability probes.
func TestRunFig12ParallelMatchesSerial(t *testing.T) {
	g := parallelTestGraph(t)
	matchesSerial(t, func() []Fig12Point {
		return RunFig12(Fig12Config{
			Graph:      g,
			SpaceSizes: []uint32{50},
			MakeAlloc: func(size uint32) allocator.Allocator {
				return allocator.NewStaticPartitioned(size, allocator.IPR3Separators())
			},
			Dist: mcast.DS4(),
			Reps: 8,
			Seed: 1998,
		})
	})
}
