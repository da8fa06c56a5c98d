// Package obs is a stub of the real observability registry, just enough
// surface for the metricname fixture: the analyzer matches receivers by
// package name ("obs") and type name ("Registry"), so this stand-in
// exercises it without importing the module under analysis.
package obs

// Counter and Histogram are opaque stand-ins for the real instrument
// types.
type Counter struct{}
type Histogram struct{}

// Registry mimics the registration surface of the real obs.Registry.
type Registry struct{}

func (r *Registry) Counter(name, help string) (*Counter, error)           { return &Counter{}, nil }
func (r *Registry) CounterFunc(name, help string, fn func() uint64) error { return nil }
func (r *Registry) GaugeFunc(name, help string, fn func() float64) error  { return nil }
func (r *Registry) Histogram(name, help string, bounds []int64) (*Histogram, error) {
	return &Histogram{}, nil
}
