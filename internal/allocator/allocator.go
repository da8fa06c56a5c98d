// Package allocator implements the paper's multicast address allocation
// algorithms: pure random (R), informed random (IR), static informed
// partitioned random (IPR k-band), adaptive informed partitioned random
// (AIPR, the deterministic Figure-8 variant with a configurable inter-band
// gap budget), and the IPR-7/AIPR hybrid (AIPR-H).
//
// All allocators work over an abstract address space of a fixed size and
// see the world through the *view* of the allocating site: the sessions
// whose announcements have reached that site. Scoping means different
// sites have different views; the clash behaviour that emerges from those
// differing views is exactly what the paper studies.
package allocator

import (
	"errors"
	"fmt"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// SessionInfo is the slice of a session an allocator can see: its address
// and its scope.
type SessionInfo struct {
	Addr mcast.Addr
	TTL  mcast.TTL
}

// ErrSpaceFull is returned when the allocator cannot find any address it
// believes to be free for the requested scope.
var ErrSpaceFull = errors.New("allocator: no free address visible for requested scope")

// An Allocator picks multicast addresses for new sessions.
//
// Allocate receives the set of sessions currently visible at the
// allocating site (it must not retain or modify the slice) and the scope
// TTL of the new session, and returns an address index in [0, Size()).
// Implementations are deterministic given the rng stream.
//
// All allocators in this package are immutable after construction, so a
// single instance may be shared by concurrent experiment workers as long
// as each worker passes its own *stats.RNG (RNGs are not concurrency-safe;
// derive per-worker streams with Split).
type Allocator interface {
	// Name identifies the algorithm in experiment output, e.g. "IPR 7-band".
	Name() string
	// Size returns the number of addresses in the space being managed.
	Size() uint32
	// Allocate picks an address for a new session of scope ttl.
	Allocate(visible []SessionInfo, ttl mcast.TTL, rng *stats.RNG) (mcast.Addr, error)
	// AllocateBatch picks addresses for k new sessions of scope ttl in one
	// pass, appending them to dst and returning the extended slice. The
	// result is bit-identical to k sequential Allocate calls in which each
	// freshly allocated session is appended to the view between calls, but
	// the view is folded into class counts and the used-address set once
	// per batch instead of once per address: a burst of creations pays the
	// O(len(visible)) fold once, each pick adding only its own address.
	// Batching is an amortisation, never a behaviour change; for the
	// algorithms built on core, Allocate is AllocateBatch with k = 1. On
	// failure the addresses allocated before the error are returned
	// alongside it.
	AllocateBatch(visible []SessionInfo, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error)
}

// pickFreeInRange returns a uniformly random address in [start, start+width)
// that is not in used. It first tries rejection sampling (cheap when the
// range is sparsely occupied), then falls back to an exact selection so the
// result stays uniform even in nearly full ranges. The exact path is
// allocation-free: it counts the free slots word-parallel, draws one index,
// and selects that free slot directly — the same single rng draw and the
// same ascending-order choice the old collect-then-pick scan made, so
// results are bit-identical. ok is false if the range is fully occupied.
func pickFreeInRange(start, width uint32, used *usedSet, rng *stats.RNG) (mcast.Addr, bool) {
	if width == 0 {
		return 0, false
	}
	const rejectionTries = 32
	for i := 0; i < rejectionTries; i++ {
		a := mcast.Addr(start + uint32(rng.IntN(int(width))))
		if !used.has(a) {
			return a, true
		}
	}
	free := width - used.countUsed(start, start+width)
	if free == 0 {
		return 0, false
	}
	addr, ok := used.nthFree(start, start+width, uint32(rng.IntN(int(free))))
	return addr, ok
}

// expandingPick allocates from a nominal band [start, start+width),
// falling back to progressive downward expansion — the paper's band growth
// only ever "pushes" lower bands *down* the space (Figure 8); bands never
// grow upward into higher-TTL territory, because an upward stray would be
// invisible to the wider-scoped sites it endangers. It fails when the band
// and everything below it is visibly in use.
func expandingPick(start, width uint32, used *usedSet, rng *stats.RNG) (mcast.Addr, bool) {
	if addr, ok := pickFreeInRange(start, width, used, rng); ok {
		return addr, true
	}
	// Grow downward, doubling the expansion region until it hits bottom.
	expand := width
	if expand < 4 {
		expand = 4
	}
	for {
		lo := int64(start) - int64(expand)
		if lo < 0 {
			lo = 0
		}
		if addr, ok := pickFreeInRange(uint32(lo), start-uint32(lo), used, rng); ok {
			return addr, true
		}
		if lo == 0 {
			break
		}
		expand *= 2
	}
	return 0, false
}

func validateSize(size uint32) {
	if size == 0 {
		panic("allocator: zero-size address space")
	}
}

// catalog is the menu: every algorithm the paper simulates, configured as
// in Figures 5 and 12, under the name its rows print.
var catalog = []struct {
	name string
	make func(size uint32, name string) Allocator
}{
	{"R", func(size uint32, _ string) Allocator { return NewRandom(size) }},
	{"IR", func(size uint32, _ string) Allocator { return NewInformedRandom(size) }},
	{"IPR 3-band", func(size uint32, _ string) Allocator { return NewStaticPartitioned(size, IPR3Separators()) }},
	{"IPR 7-band", func(size uint32, _ string) Allocator { return NewStaticPartitioned(size, IPR7Separators()) }},
	{"AIPR-1 (20% gap)", aipr(0.2)},
	{"AIPR-2 (50% gap)", aipr(0.5)},
	{"AIPR-3 (60% gap)", aipr(0.6)},
	{"AIPR-4 (70% gap)", aipr(0.7)},
	{"AIPR-H (hybrid)", func(size uint32, _ string) Allocator { return NewHybrid(size) }},
}

// aipr makes the Figure-12 adaptive allocator with the given gap share,
// under its catalog name.
func aipr(gap float64) func(size uint32, name string) Allocator {
	return func(size uint32, name string) Allocator {
		return NewAdaptive(size, AdaptiveConfig{GapFraction: gap, Name: name})
	}
}

// ByName returns the catalog allocator with the given Name — the lookup
// the experiment drivers' algorithm lists resolve through.
func ByName(size uint32, name string) (Allocator, error) {
	for _, c := range catalog {
		if c.name == name {
			return c.make(size, name), nil
		}
	}
	return nil, fmt.Errorf("allocator: unknown algorithm %q", name)
}
