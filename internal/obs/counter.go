package obs

import "sync/atomic"

// Counter is a monotonically increasing counter. Updates are a single
// atomic add — allocation-free and safe from any goroutine, so Inc can
// sit on packet receive paths and allocator hot loops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) kind() string { return "counter" }

func (c *Counter) sample(name string, out []MetricValue) []MetricValue {
	return append(out, MetricValue{Name: name, Kind: "counter", Value: float64(c.v.Load())})
}

// counterFunc adapts an external monotone counter into the registry;
// the function runs at collection time only.
type counterFunc func() uint64

func (f counterFunc) kind() string { return "counter" }

func (f counterFunc) sample(name string, out []MetricValue) []MetricValue {
	return append(out, MetricValue{Name: name, Kind: "counter", Value: float64(f())})
}

// gaugeFunc adapts an external reading into a gauge.
type gaugeFunc func() float64

func (f gaugeFunc) kind() string { return "gauge" }

func (f gaugeFunc) sample(name string, out []MetricValue) []MetricValue {
	return append(out, MetricValue{Name: name, Kind: "gauge", Value: f()})
}
