// Package experiments regenerates every table and figure of the paper's
// evaluation. Each runner prints the same rows/series the paper plots and
// returns machine-readable results where callers need them.
//
// Runners take a Scale: Quick keeps unit tests and benchmarks fast, Full
// reproduces the paper's parameter ranges (mcbench -experiment all -full
// took 2 min 56 s on 2 cores).
package experiments

import (
	"fmt"
	"io"
	"sort"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// Scale bundles the experiment parameter ranges.
type Scale struct {
	Name string

	// Topology.
	MboneNodes int
	HopSources int // sources sampled for Figure 10 (0 = all)

	// Figure 5.
	Fig5Spaces []uint32
	Fig5Trials int
	Fig5Dists  []mcast.TTLDistribution

	// Figures 12–13.
	Fig12Spaces []uint32
	Fig12Reps   int

	// Occupancy sweep (the mcbench -full perf tier): resident-session
	// targets and address space for the directory-scale fill + churn runs
	// (Figures 5/12 shape, but sessions persist past their first clash;
	// each run churns sessions/10 replacements).
	OccSessions []int
	OccSpace    uint32

	// Figures 14/18 (analytic responder surfaces).
	RespReceivers []int
	RespD2Millis  []float64

	// Figures 15/16/19 (request–response simulations).
	RRGroupSizes []int
	RRD2Millis   []float64
	RRTrials     int

	Seed uint64
}

// Quick returns a scale suitable for CI: minutes, not hours.
func Quick() Scale {
	return Scale{
		Name:          "quick",
		MboneNodes:    400,
		HopSources:    60,
		Fig5Spaces:    []uint32{100, 200, 400},
		Fig5Trials:    10,
		Fig5Dists:     []mcast.TTLDistribution{mcast.DS1(), mcast.DS4()},
		Fig12Spaces:   []uint32{100, 200, 400},
		Fig12Reps:     25,
		OccSessions:   []int{2000},
		OccSpace:      4096,
		RespReceivers: []int{200, 800, 3200, 12800},
		RespD2Millis:  []float64{800, 3200, 12800, 51200},
		RRGroupSizes:  []int{200, 800},
		RRD2Millis:    []float64{200, 3200, 51200},
		RRTrials:      3,
		Seed:          1998,
	}
}

// Full reproduces the paper's ranges.
func Full() Scale {
	return Scale{
		Name:          "full",
		MboneNodes:    1864,
		HopSources:    0, // every mrouter, as the paper does
		Fig5Spaces:    []uint32{100, 200, 400, 800, 1600},
		Fig5Trials:    50,
		Fig5Dists:     mcast.Distributions(),
		Fig12Spaces:   []uint32{100, 200, 400, 800, 1600},
		Fig12Reps:     100,
		OccSessions:   []int{25000, 100000},
		OccSpace:      131072,
		RespReceivers: []int{200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200},
		RespD2Millis:  []float64{800, 3200, 12800, 51200, 204800},
		RRGroupSizes:  []int{200, 400, 800, 1600, 3200, 6400, 12800, 25600, 51200},
		RRD2Millis:    []float64{200, 800, 3200, 12800, 51200, 204800, 819200, 3276800, 13107200},
		RRTrials:      5,
		Seed:          1998,
	}
}

// Runner regenerates one figure or table.
type Runner struct {
	ID          string
	Description string
	Run         func(w io.Writer, s Scale) error
}

// All returns every experiment runner, sorted by id.
func All() []Runner {
	rs := []Runner{
		{"fig1", "IPRMA partition probability density illustration", RunFig1},
		{"fig4", "birthday-problem clash probability (space 10000)", RunFig4},
		{"fig5", "allocations before clash: R/IR/IPR3/IPR7 × ds1–ds4 on the Mbone", RunFig5},
		{"fig6", "Eq 1: allocations at 50% clash probability vs partition size", RunFig6},
		{"fig8", "deterministic adaptive IPRMA band layout at two sites", RunFig8},
		{"fig10", "Mbone hop-count distribution for TTL 15/47/63/127", RunFig10},
		{"fig11", "TTL→partition mapping, margin of safety 2 (55 partitions)", RunFig11},
		{"fig12", "steady-state churn: adaptive vs static allocators", RunFig12},
		{"fig13", "steady-state upper bound (same-source replacement)", RunFig13},
		{"fig14", "Eq 2: responder bound, uniform delay buckets", RunFig14},
		{"fig15", "Figs 15/16/19: simulated responders (SPT/shared × jitter), first-response delay, uniform vs exponential", RunFig15},
		{"fig18", "Eq 4 + simulation: exponential delay buckets", RunFig18},
		{"ttltable", "most frequent / max hop count per TTL (§2.4.1 table)", RunTTLTable},
		{"ablation", "design-choice ablations (gaps, occupancy, margin, backoff)", RunAblations},
		{"hierarchy", "§4.1 extension: flat vs prefix-hierarchical allocation", RunHierarchy},
		{"occupancy", "directory-scale occupancy: fill + churn clash rates (Figs 5/12 shape)", RunOccupancySweep},
		{"discovery", "packet-level discovery delay vs loss and back-off schedule", RunDiscovery},
		{"adminscope", "§1 contrast: informed-random under admin vs TTL scoping", RunAdminScope},
		{"strategies", "§3.1 responder strategies: uniform/exp/two-tier/ranked", RunStrategies},
		{"clustering", "§2.6 postulate: community-structured vs random churn", RunClustering},
		{"resolution", "clash-resolution latency through the agent stack (§3)", RunResolution},
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].ID < rs[j].ID })
	return rs
}

// ByID returns the runner with the given id.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// mbone builds the scale's Mbone topology.
func mbone(s Scale) (*topology.Graph, error) {
	return topology.GenerateMbone(topology.MboneConfig{Nodes: s.MboneNodes}, stats.NewRNG(s.Seed))
}

// sampleSources picks the Figure-10 source sample.
func sampleSources(g *topology.Graph, n int, seed uint64) []topology.NodeID {
	if n <= 0 || n >= g.NumNodes() {
		return nil // all
	}
	rng := stats.NewRNG(seed)
	perm := rng.Perm(g.NumNodes())
	out := make([]topology.NodeID, n)
	for i := 0; i < n; i++ {
		out[i] = topology.NodeID(perm[i])
	}
	return out
}
