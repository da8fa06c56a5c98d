package obs

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// Histogram is a fixed-bucket histogram over int64 observations (byte
// sizes, microsecond latencies, address indices). Bucket bounds are
// fixed at registration; Observe is a bucket scan plus three atomic
// adds — allocation-free, so it can sit on the packet receive path.
//
// It deliberately complements stats.IntHistogram (the simulators'
// exact-count histogram): that one grows to the data and is single-
// threaded; this one is bounded and concurrent.
type Histogram struct {
	bounds []int64 // ascending inclusive upper bounds
	counts []atomic.Uint64
	sum    atomic.Int64
	total  atomic.Uint64
}

func newHistogram(bounds []int64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds must be strictly ascending (bounds[%d]=%d <= bounds[%d]=%d)",
				i, bounds[i], i-1, bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1), // +1 for +Inf
	}, nil
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Buckets returns the bounds and the cumulative count at or below each
// bound, ending with the +Inf bucket (== Count()). The two slices are
// freshly allocated snapshots.
func (h *Histogram) Buckets() (bounds []int64, cumulative []uint64) {
	bounds = append([]int64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		cumulative[i] = cum
	}
	return bounds, cumulative
}

func (h *Histogram) kind() string { return "histogram" }

func (h *Histogram) sample(name string, out []MetricValue) []MetricValue {
	bounds, cum := h.Buckets()
	for i, b := range bounds {
		out = append(out, MetricValue{
			Name:  name + "_bucket_le_" + strconv.FormatInt(b, 10),
			Kind:  "histogram",
			Value: float64(cum[i]),
		})
	}
	out = append(out, MetricValue{Name: name + "_bucket_le_inf", Kind: "histogram", Value: float64(cum[len(cum)-1])})
	out = append(out, MetricValue{Name: name + "_sum", Kind: "histogram", Value: float64(h.Sum())})
	out = append(out, MetricValue{Name: name + "_count", Kind: "histogram", Value: float64(h.Count())})
	return out
}
