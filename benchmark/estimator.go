package main

import (
	"math"
	"sort"
	"time"

	"sessiondir/internal/stats"
)

// The estimator. On a small shared host the same call, doing bit-identical
// work, takes a different time on every replay: a neighbour steals the
// core, the collector runs, a cache line is cold. All of that only ever
// adds time. So the undisturbed cost of call i is estimated by the
// minimum, over identical replays, of the time call i took — pointwise,
// call by call, not the minimum of whole-run totals — and every timing
// metric is computed from that de-noised series.
//
// Blind spot: work that hits a random call each rep (a collection cycle,
// a background flush) is filtered out with the noise. The allocation
// metrics and bench.rep_wall_s exist to carry it.

const (
	// minReps is the fewest replays a result may rest on.
	minReps = 7
	// extraReps bounds how far a run may overshoot its time budget while
	// the estimate is still falling.
	extraReps = 3
	// settleBelow is the stop rule's threshold: the estimate has settled
	// when the last two reps lowered it by less than this share.
	settleBelow = 0.01
)

// pointwiseMin folds one rep's call times into the running minimum.
func pointwiseMin(best, rep []int64) {
	for i, t := range rep {
		if t < best[i] {
			best[i] = t
		}
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// needAnotherRep is the adaptive stop rule. sums[r] is the sum of the
// pointwise minima after rep r. A run replays for its time budget, never
// fewer than minReps times; past the budget it may add up to extraReps
// replays while the last two still lowered the estimate by settleBelow
// or more. overtime counts replays already started past the budget.
func needAnotherRep(sums []int64, elapsed, budget time.Duration, overtime int) bool {
	r := len(sums)
	if r < minReps || elapsed < budget {
		return true
	}
	if overtime >= extraReps {
		return false
	}
	return !settled(sums)
}

// settled reports whether the last two reps lowered the summed minima by
// less than settleBelow of its current value.
func settled(sums []int64) bool {
	r := len(sums)
	if r < 3 {
		return false
	}
	return float64(sums[r-3]-sums[r-1]) < settleBelow*float64(sums[r-1])
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which must be sorted ascending and non-empty.
func percentile(sorted []int64, p float64) int64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median of a non-empty float series (mean of the middle two when even).
func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// quartiles returns the first and third quartile with the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive"), the one the
// acceptance check uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// timings are the four timing metrics of one run.
type timings struct {
	setupS       float64
	throughputPS float64
	p50us, p90us float64
	p99us        float64
	latencyCalls int
}

// estimate computes the timing metrics from the pointwise minima.
// best[i] is the de-noised service time of call i, isLatency marks the
// workload's latency calls, ops is the operations one rep performs and
// setupBest the per-step minima of set-up.
func estimate(best []int64, isLatency func(i int) bool, ops int, setupBest []int64) timings {
	var lat []int64
	for i, t := range best {
		if isLatency(i) {
			lat = append(lat, t)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	total := float64(sum(best)) / 1e9
	tm := timings{
		setupS:       float64(sum(setupBest)) / 1e9,
		latencyCalls: len(lat),
	}
	if total > 0 {
		tm.throughputPS = float64(ops) / total
	}
	if len(lat) > 0 {
		tm.p50us = float64(percentile(lat, 50)) / 1e3
		tm.p90us = float64(percentile(lat, 90)) / 1e3
		tm.p99us = float64(percentile(lat, 99)) / 1e3
	}
	return tm
}
