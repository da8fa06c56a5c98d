package des

import (
	"fmt"
	"time"

	"sessiondir/internal/topology"
)

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// Pending returns the number of queued events (diagnostics).
func (e *Engine) Pending() int { return e.events.Len() }

// String implements fmt.Stringer.
func (e *Engine) String() string {
	return fmt.Sprintf("des.Engine{now: %s, pending: %d}", e.now.Format(time.RFC3339), e.events.Len())
}

// Partition is a convenience LinkFilter: communication is allowed only
// within each side of the cut. Membership is decided by the given
// predicate (true = side A).
func Partition(sideA func(topology.NodeID) bool) LinkFilter {
	return func(src, dst topology.NodeID) bool {
		return sideA(src) == sideA(dst)
	}
}
