package announce

import "time"

// Sharded is Cache under the name benchmark/shadow.go compiles against:
// the store was once striped into per-origin shards with a lock each, and
// is one Cache under the directory's mutex since DESIGN.md §17.1's verdict.
// It exists for benchmark/ only and goes with the benchmark PR that
// re-points the probes (ROADMAP item 7), as do the two shims below.
type Sharded = Cache

// NewSharded is NewCache; the second argument, once a shard count, is
// ignored.
func NewSharded(timeout time.Duration, _ int) *Cache { return NewCache(timeout) }

// AllGrouped returns All as a single group — what a one-shard Sharded
// returned.
func (c *Cache) AllGrouped() [][]*Entry { return [][]*Entry{c.All()} }
