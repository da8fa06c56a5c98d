package allocator

import (
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// Random is the paper's algorithm R: pure random allocation, ignoring all
// announcements. It clashes after O(√n) allocations (the birthday bound of
// Figure 4) and anchors the bottom of Figure 5.
type Random struct {
	size uint32
}

// NewRandom returns an R allocator over a space of the given size.
func NewRandom(size uint32) *Random {
	validateSize(size)
	return &Random{size: size}
}

// Name implements Allocator.
func (r *Random) Name() string { return "R" }

// Size implements Allocator.
func (r *Random) Size() uint32 { return r.size }

// Allocate implements Allocator: a uniform draw from the whole space.
func (r *Random) Allocate(_ []SessionInfo, _ mcast.TTL, rng *stats.RNG) (mcast.Addr, error) {
	return mcast.Addr(rng.IntN(int(r.size))), nil
}

// AllocateBatch implements Allocator: k uniform draws. R ignores the
// visible set entirely, so there is no setup to amortise and intra-batch
// duplicates are as possible as inter-site ones — that is the algorithm.
func (r *Random) AllocateBatch(_ []SessionInfo, _ mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	for i := 0; i < k; i++ {
		dst = append(dst, mcast.Addr(rng.IntN(int(r.size))))
	}
	return dst, nil
}

// AllocateFrom implements StateAllocator: k uniform draws, the State ignored
// as any view is.
func (r *Random) AllocateFrom(_ *State, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	return r.AllocateBatch(nil, ttl, k, dst, rng)
}

// InformedRandom is the paper's algorithm IR: uniform over the addresses
// not currently visible in any session announcement. Figure 5's perhaps
// surprising result is that IR is *not* much better than R: the sessions
// that matter for clashes are exactly the ones scoping hides.
type InformedRandom struct{ core }

// NewInformedRandom returns an IR allocator over a space of the given size.
func NewInformedRandom(size uint32) *InformedRandom {
	validateSize(size)
	r := &InformedRandom{}
	r.core = core{name: "IR", size: size, classes: 1, rule: r}
	return r
}

// band is IR's rule: one band for every scope, the whole space.
func (r *InformedRandom) band([]int, int) (start, width uint32) { return 0, r.size }
