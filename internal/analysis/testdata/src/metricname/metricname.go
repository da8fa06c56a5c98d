// Package metricname is a fixture for the metricname analyzer: literal
// names handed to obs.Registry registration calls must be snake_case and
// unique within the package; dynamic names and look-alike receivers stay
// quiet.
package metricname

import "fixture/obs"

func wire(r *obs.Registry) {
	// Clean registrations: every instrument kind, all snake_case, no reuse.
	_, _ = r.Counter("packets_total", "fine")
	_, _ = r.Counter("drops_total", "fine")
	_ = r.GaugeFunc("queue_depth", "fine", func() float64 { return 0 })
	_ = r.GaugeFunc("cache_sessions", "fine", func() float64 { return 0 })
	_ = r.CounterFunc("reads_total", "fine", func() uint64 { return 0 })
	_, _ = r.Histogram("packet_size_bytes", "fine", []int64{64, 512})

	// Shape violations.
	_, _ = r.Counter("UpperCase", "x")                                       // want `metric name "UpperCase" is not snake_case`
	_ = r.CounterFunc("9starts_with_digit", "x", func() uint64 { return 0 }) // want `metric name "9starts_with_digit" is not snake_case`
	_ = r.GaugeFunc("has-dash", "x", func() float64 { return 0 })            // want `metric name "has-dash" is not snake_case`
	_, _ = r.Histogram("dotted.name", "x", []int64{1})                       // want `metric name "dotted\.name" is not snake_case`

	// Duplicate literal names, including one assembled from constants.
	_, _ = r.Counter("packets_total", "dup") // want `metric name "packets_total" already registered at metricname\.go:11`
	const assembled = "drops_" + "total"
	_, _ = r.Counter(assembled, "dup") // want `metric name "drops_total" already registered at metricname\.go:12`
}

// dynamicName shows the analyzer's limit: a name only known at run time
// is the registry's runtime validation's job.
func dynamicName(r *obs.Registry, n string) {
	_, _ = r.Counter(n, "checked at registration time")
	_, _ = r.Counter(n+"_total", "likewise")
}

// lookalike has the same method names on a different receiver type; the
// analyzer must key on obs.Registry, not on method names alone.
type lookalike struct{}

func (lookalike) Counter(name, help string) {}

func notARegistry(l lookalike) {
	l.Counter("Not A Metric", "different receiver stays quiet")
}

// waived shows the standard escape hatch: no want on these lines, so the
// fixture asserts the waiver suppresses the diagnostic.
func waived(r *obs.Registry) {
	//mclint:metricname exercising the waiver path
	_, _ = r.Counter("Waived", "suppressed by the waiver above")
}
