// Package obs is the observability layer: a dependency-free metrics
// registry (counters, function-read counters and gauges, fixed-bucket
// histograms) with atomic,
// allocation-free hot-path updates, plus a structured event tracer
// (trace.go) whose ring buffer records typed protocol events on virtual
// time. Every runtime layer — the directory, admission control, the
// transports, the allocators — registers its instruments here; sdrd
// exposes the registry as Prometheus text and expvar, and mcbench folds
// registry snapshots into BENCH.json so perf and occupancy metrics share
// one schema (DESIGN.md §12).
//
// Determinism contract: nothing in this package reads the wall clock or
// draws randomness. Counters only observe decisions made elsewhere, and
// the tracer stamps events with caller-supplied virtual time, so enabling
// observability never perturbs a seeded run — chaos replays stay
// bit-identical with tracing on.
//
// Metric names are validated at registration time: they must be
// snake_case (`^[a-z][a-z0-9_]*$`) and unique within their registry;
// a constructor returns an error otherwise. mclint's metricname analyzer
// enforces the same rule statically on literal names.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// metric is the registry's view of one registered instrument.
type metric interface {
	// kind is the Prometheus metric family type: counter, gauge, histogram.
	kind() string
	// sample flattens the current value(s) into name/value pairs. For
	// scalars this is one sample named after the metric itself; histograms
	// expand to their buckets, sum, and count.
	sample(name string, out []MetricValue) []MetricValue
}

// MetricValue is one flattened sample of a metric — the unit of
// Registry.Snapshot and the schema mcbench writes into BENCH.json.
type MetricValue struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
}

// entry pairs a registered metric with its help text.
type entry struct {
	m    metric
	help string
}

// Registry holds named metrics. Registration (rare, at wiring time) is
// mutex-guarded; updates to registered counters, gauges and histograms
// are atomic and never touch the registry lock, so the hot path is
// contention- and allocation-free.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]entry)}
}

// ValidName reports whether name is a legal metric name: snake_case,
// starting with a letter (`^[a-z][a-z0-9_]*$`).
func ValidName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// Sanitize lowers s and maps every non-alphanumeric run to a single
// underscore, yielding a ValidName-clean fragment for dynamic names
// (e.g. an allocator's display name "AIPR-1 (20% gap)" → "aipr_1_20_gap").
func Sanitize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	pendingSep := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
			fallthrough
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			if pendingSep && b.Len() > 0 {
				b.WriteByte('_')
			}
			pendingSep = false
			b.WriteByte(c)
		default:
			pendingSep = true
		}
	}
	out := b.String()
	if out == "" || out[0] >= '0' && out[0] <= '9' {
		out = "m_" + out
	}
	return out
}

// register validates the name and adds m under it.
func (r *Registry) register(name, help string, m metric) error {
	if !ValidName(name) {
		return fmt.Errorf("obs: metric name %q is not snake_case ([a-z][a-z0-9_]*)", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		return fmt.Errorf("obs: metric %q already registered", name)
	}
	r.metrics[name] = entry{m: m, help: help}
	return nil
}

// Counter registers a new counter. Errors on an invalid or duplicate
// name — the production registration path.
func (r *Registry) Counter(name, help string) (*Counter, error) {
	c := &Counter{}
	if err := r.register(name, help, c); err != nil {
		return nil, err
	}
	return c, nil
}

// CounterFunc registers a counter whose value is read from fn at
// collection time. It adapts pre-existing counters (an atomic field, a
// mutex-guarded stats struct) into the registry without changing their
// hot path; fn runs only when the registry is scraped or snapshotted and
// must be safe to call from any goroutine.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) error {
	return r.register(name, help, counterFunc(fn))
}

// GaugeFunc registers a gauge whose value is read from fn at collection
// time, under the same rules as CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) error {
	return r.register(name, help, gaugeFunc(fn))
}

// Histogram registers a fixed-bucket histogram. bounds are ascending
// inclusive upper bounds; an implicit +Inf bucket is appended.
func (r *Registry) Histogram(name, help string, bounds []int64) (*Histogram, error) {
	h, err := newHistogram(bounds)
	if err != nil {
		return nil, err
	}
	if err := r.register(name, help, h); err != nil {
		return nil, err
	}
	return h, nil
}

// sortedNames returns the registered names in lexical order. Caller must
// hold r.mu.
func (r *Registry) sortedNames() []string {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Snapshot flattens every registered metric into sorted name/value
// samples: counters and gauges one sample each, histograms their
// cumulative buckets plus sum and count. The result is deterministic for
// deterministic workloads, which is what lets BENCH.json carry registry
// values across commits.
func (r *Registry) Snapshot() []MetricValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricValue, 0, len(r.metrics))
	for _, name := range r.sortedNames() {
		out = r.metrics[name].m.sample(name, out)
	}
	return out
}
