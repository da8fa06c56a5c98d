package obs

import "sync/atomic"

// Test conveniences over the registry: the panicking registrars and an
// integer gauge that the tests below register alongside the function-read
// kinds production uses.

// Gauge is an integer gauge: a value that can go up and down (cache
// occupancy, queue depth). Updates are single atomics.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) kind() string { return "gauge" }

func (g *Gauge) sample(name string, out []MetricValue) []MetricValue {
	return append(out, MetricValue{Name: name, Kind: "gauge", Value: float64(g.v.Load())})
}

// mustRegister is the panic wrapper shared by the Must constructors.
func mustRegister(err error) {
	if err != nil {
		panic(err)
	}
}

// MustCounter is Counter, panicking on error.
func (r *Registry) MustCounter(name, help string) *Counter {
	c, err := r.Counter(name, help)
	mustRegister(err)
	return c
}

// Gauge registers a new integer gauge.
func (r *Registry) Gauge(name, help string) (*Gauge, error) {
	g := &Gauge{}
	if err := r.register(name, help, g); err != nil {
		return nil, err
	}
	return g, nil
}

// MustGauge is Gauge, panicking on error.
func (r *Registry) MustGauge(name, help string) *Gauge {
	g, err := r.Gauge(name, help)
	mustRegister(err)
	return g
}

// MustCounterFunc is CounterFunc, panicking on error.
func (r *Registry) MustCounterFunc(name, help string, fn func() uint64) {
	mustRegister(r.CounterFunc(name, help, fn))
}

// MustGaugeFunc is GaugeFunc, panicking on error.
func (r *Registry) MustGaugeFunc(name, help string, fn func() float64) {
	mustRegister(r.GaugeFunc(name, help, fn))
}

// MustHistogram is Histogram, panicking on error.
func (r *Registry) MustHistogram(name, help string, bounds []int64) *Histogram {
	h, err := r.Histogram(name, help, bounds)
	mustRegister(err)
	return h
}
