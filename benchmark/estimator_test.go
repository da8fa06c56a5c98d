package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"
)

func TestPointwiseMin(t *testing.T) {
	best := []int64{math.MaxInt64, math.MaxInt64, math.MaxInt64}
	pointwiseMin(best, []int64{5, 9, 7})
	pointwiseMin(best, []int64{6, 3, 7})
	pointwiseMin(best, []int64{4, 8, 9})
	if want := []int64{4, 3, 7}; !equalInts(best, want) {
		t.Fatalf("pointwise min = %v, want %v", best, want)
	}
	// The minimum is taken per call, not per rep: no single rep above is
	// as fast as 4+3+7.
	if got := sum(best); got != 14 {
		t.Fatalf("sum of minima = %d, want 14", got)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{7}, 90); got != 7 {
		t.Errorf("p90 of one sample = %d, want 7", got)
	}
	// 600 latency calls leave 60 samples beyond the 90th percentile.
	if beyond := 600 - int(math.Ceil(0.9*600)); beyond != 60 {
		t.Errorf("samples beyond p90 of 600 = %d, want 60", beyond)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, since the acceptance check is
// computed with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v, %v; want 1, 3", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestStopRule(t *testing.T) {
	const budget = 10 * time.Second
	falling := []int64{1000, 900, 850, 820, 800, 790, 780, 770, 760} // still > 1 % per two reps
	flat := []int64{1000, 900, 850, 820, 800, 799, 798, 797, 796}
	cases := []struct {
		name     string
		sums     []int64
		elapsed  time.Duration
		overtime int
		want     bool
	}{
		{"fewer than minReps always continues", flat[:minReps-1], time.Hour, extraReps, true},
		{"inside the budget always continues", flat, budget - 1, 0, true},
		{"past the budget and settled stops", flat, budget, 0, false},
		{"past the budget, still falling, continues", falling, budget, 0, true},
		{"extra reps are bounded", falling, budget, extraReps, false},
	}
	for _, c := range cases {
		if got := needAnotherRep(c.sums, c.elapsed, budget, c.overtime); got != c.want {
			t.Errorf("%s: needAnotherRep = %v, want %v", c.name, got, c.want)
		}
	}
	if settled([]int64{100, 90}) {
		t.Error("two reps cannot show that the estimate settled")
	}
}

// synthetic builds reps of a script whose true service times are known,
// then adds +50 % to a random 30 % of the samples of every rep: the kind
// of interference a shared host produces.
func synthetic(rng *rand.Rand, calls, steps, reps int) (truth, setupTruth []int64, runs, setupRuns [][]int64) {
	draw := func(n int, scale float64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(scale * math.Exp(rng.NormFloat64()*0.5))
		}
		return out
	}
	disturb := func(base []int64) []int64 {
		out := make([]int64, len(base))
		for i, b := range base {
			out[i] = b
			if rng.Float64() < 0.3 {
				out[i] = b + b/2
			}
		}
		return out
	}
	truth, setupTruth = draw(calls, 100_000), draw(steps, 50_000_000)
	for r := 0; r < reps; r++ {
		runs = append(runs, disturb(truth))
		setupRuns = append(setupRuns, disturb(setupTruth))
	}
	return
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

func TestPointwiseMinSurvivesInterference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1998, 7))
	const calls, steps, reps, ops = 5000, 3, 9, 5000
	truth, setupTruth, runs, setupRuns := synthetic(rng, calls, steps, reps)
	all := func(int) bool { return true }
	want := estimate(truth, all, ops, setupTruth)

	// The benchmark's estimator: pointwise minimum over reps.
	fold := func(rs [][]int64) []int64 {
		best := append([]int64(nil), rs[0]...)
		for _, r := range rs[1:] {
			pointwiseMin(best, r)
		}
		return best
	}
	got := estimate(fold(runs), all, ops, fold(setupRuns))
	for _, m := range []struct {
		name      string
		got, want float64
	}{
		{"setup_s", got.setupS, want.setupS},
		{"throughput_per_s", got.throughputPS, want.throughputPS},
		{"latency_p50_us", got.p50us, want.p50us},
		{"latency_p90_us", got.p90us, want.p90us},
	} {
		if e := relErr(m.got, m.want); e >= 0.02 {
			t.Errorf("pointwise-min %s = %v, truth %v: off by %.1f%%, want < 2%%", m.name, m.got, m.want, 100*e)
		}
	}

	// The estimator PR 11 used, on the same input: the median over reps of
	// each call's time. With 30 % of samples disturbed, one call in eight
	// has a disturbed median, and the totals move with them.
	medianOfReps := func(rs [][]int64) []int64 {
		out := make([]int64, len(rs[0]))
		col := make([]int64, len(rs))
		for i := range out {
			for r := range rs {
				col[r] = rs[r][i]
			}
			sort.Slice(col, func(a, b int) bool { return col[a] < col[b] })
			out[i] = col[len(col)/2]
		}
		return out
	}
	naive := estimate(medianOfReps(runs), all, ops, medianOfReps(setupRuns))
	if e := relErr(naive.throughputPS, want.throughputPS); e < 0.02 {
		t.Errorf("median-of-reps throughput is off by only %.1f%%; the test input is too clean to tell the estimators apart", 100*e)
	}
}
