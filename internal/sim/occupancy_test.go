package sim

import (
	"testing"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

func occupancyTestGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 150}, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The serial oracle is now the code under test, so the outcomes are pinned
// instead: every want below was printed by RunOccupancy at the last commit
// that had the partitioned world (PR 17, parts=8 and parts=1 agreeing,
// workers=2), before the partitions were cut. The first two rows are the
// configuration the old parts × workers matrix ran; the 6000-session row
// is past the old parallel-scan threshold (4096), so it is the fan-out's
// own output that the plain loop reproduces; the overcommitted rows (700
// sessions in 512 addresses) make the hybrid's clash counts non-trivial
// too.
func TestRunOccupancyMatchesSerialOracle(t *testing.T) {
	g := occupancyTestGraph(t)
	ir := func(size uint32) allocator.Allocator { return allocator.NewInformedRandom(size) }
	hybrid := func(size uint32) allocator.Allocator { return allocator.NewHybrid(size) }
	for _, c := range []struct {
		mk              func(uint32) allocator.Allocator
		space           uint32
		sessions, churn int
		seed            uint64
		fill, churned   int // clashing placements at the parent commit
	}{
		{ir, 600, 400, 120, 1998, 11, 8},
		{hybrid, 600, 400, 120, 1998, 0, 0},
		{ir, 8192, 6000, 1000, 7, 218, 71},
		{ir, 512, 700, 200, 3, 49, 25},
		{hybrid, 512, 700, 200, 3, 24, 23},
	} {
		alloc := c.mk(c.space)
		got := RunOccupancy(OccupancyConfig{
			Graph: g, Alloc: alloc, Dist: mcast.DS4(),
			Sessions: c.sessions, Churn: c.churn, Seed: c.seed,
		})
		want := OccupancyResult{
			Algorithm: alloc.Name(), Sessions: c.sessions, SpaceSize: c.space,
			Placed: c.sessions, FillClashes: c.fill, ChurnClashes: c.churned,
			Occupancy: float64(c.sessions) / float64(c.space),
		}
		if got != want {
			t.Errorf("%s %d sessions in %d, seed %d:\n got  %+v\n want %+v (recorded at the parent commit)",
				want.Algorithm, c.sessions, c.space, c.seed, got, want)
		}
	}
}
