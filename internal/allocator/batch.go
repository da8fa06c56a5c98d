package allocator

import (
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// Batch allocation.
//
// A burst of session creations — a conference fan-out, a flash crowd, a
// MANET renumbering wave — would pay the full per-Allocate setup cost k
// times: the O(len(visible)) fold of the view into class counts and the
// used-address bitset, which dominates a single allocation. AllocateBatch
// folds once and hands out k addresses, each pick adding only its own
// address to both.
//
// The contract every implementation honours (and batch_test.go pins
// against k literal Allocate calls): AllocateBatch is bit-identical to k
// sequential Allocate calls where the view grows by the freshly allocated
// session between calls. Batching is an amortisation, never a behaviour
// change — the clash dynamics the paper measures are untouched. For the
// algorithms built on core it holds by construction: Allocate is
// AllocateBatch with k = 1.

// AllocateBatch implements Allocator, delegating to the inner batch path
// and counting per-address outcomes so instrumented totals agree with
// sequential allocation.
func (i *Instrumented) AllocateBatch(visible []SessionInfo, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	before := len(dst)
	dst, err := i.inner.AllocateBatch(visible, ttl, k, dst, rng)
	i.Picks.Add(uint64(len(dst) - before))
	if err != nil {
		i.Failures.Inc()
	}
	return dst, err
}
