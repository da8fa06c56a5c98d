package stats

import (
	"fmt"
	"sort"
	"strings"
)

// IntHistogram counts occurrences of small non-negative integer values
// (hop counts, responder counts, TTLs). The zero value is ready to use.
type IntHistogram struct {
	counts []int64
	total  int64
}

// Add records one observation of v. Negative values panic: the histogram
// models counts of naturally non-negative quantities.
func (h *IntHistogram) Add(v int) {
	if v < 0 {
		panic(fmt.Sprintf("stats: IntHistogram.Add(%d): negative value", v))
	}
	if v >= len(h.counts) {
		grown := make([]int64, v+1)
		copy(grown, h.counts)
		h.counts = grown
	}
	h.counts[v]++
	h.total++
}

// Count returns the number of observations of v.
func (h *IntHistogram) Count(v int) int64 { //mclint:unused topology's hop-count tests read histograms with it
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Max returns the largest value observed, or -1 if empty.
func (h *IntHistogram) Max() int {
	for v := len(h.counts) - 1; v >= 0; v-- {
		if h.counts[v] > 0 {
			return v
		}
	}
	return -1
}

// Mode returns the most frequent value, breaking ties toward the smaller
// value, or -1 if the histogram is empty.
func (h *IntHistogram) Mode() int {
	best, bestCount := -1, int64(0)
	for v, c := range h.counts {
		if c > bestCount {
			best, bestCount = v, c
		}
	}
	return best
}

// Mean returns the mean observed value, or 0 if empty.
func (h *IntHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Normalized returns the histogram as value→fraction pairs in value order,
// omitting zero buckets. This is the form Figure 10 plots.
func (h *IntHistogram) Normalized() []BinFraction {
	if h.total == 0 {
		return nil
	}
	out := make([]BinFraction, 0, len(h.counts))
	for v, c := range h.counts {
		if c > 0 {
			out = append(out, BinFraction{Value: v, Fraction: float64(c) / float64(h.total)})
		}
	}
	return out
}

// BinFraction is one normalised histogram bin.
type BinFraction struct {
	Value    int
	Fraction float64
}

// String renders a compact textual view, useful in test failures.
func (h *IntHistogram) String() string { //mclint:unused topology's hop-count tests print histograms with it
	var b strings.Builder
	fmt.Fprintf(&b, "hist{n=%d", h.total)
	for _, bin := range h.Normalized() {
		fmt.Fprintf(&b, " %d:%.3f", bin.Value, bin.Fraction)
	}
	b.WriteString("}")
	return b.String()
}

// MedianFilter smooths xs with a sliding median of the given odd window,
// replicating edge values at the boundaries. The paper applies a median
// filter to de-noise the steady-state clash-probability tables (§2.6).
// It returns a new slice; xs is not modified. window must be odd and >= 1.
func MedianFilter(xs []float64, window int) []float64 {
	if window < 1 || window%2 == 0 {
		panic(fmt.Sprintf("stats: MedianFilter window %d must be odd and positive", window))
	}
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	half := window / 2
	buf := make([]float64, 0, window)
	for i := range xs {
		buf = buf[:0]
		for j := i - half; j <= i+half; j++ {
			k := j
			if k < 0 {
				k = 0
			}
			if k >= len(xs) {
				k = len(xs) - 1
			}
			buf = append(buf, xs[k])
		}
		sort.Float64s(buf)
		out[i] = buf[len(buf)/2]
	}
	return out
}
