// Package stats provides the deterministic randomness, histogram, and
// summary-statistics plumbing shared by the simulators and allocators.
//
// Every stochastic component in this repository draws from an explicitly
// seeded *RNG so that experiments are reproducible run-to-run: the same
// seed always yields the same topology, the same session workload, and the
// same allocation decisions.
package stats

import (
	"math/rand/v2"
)

// RNG is a deterministic random number generator. It wraps math/rand/v2's
// PCG source and adds the sampling helpers the paper's simulations need.
// RNG is not safe for concurrent use; derive independent child streams with
// Split for concurrent workers.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a generator seeded with seed. Two RNGs built from the same
// seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{r: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
}

// Split derives an independent child generator. The child's stream is a pure
// function of the parent's state at the time of the call, so splitting at
// the same point in two identical runs yields identical children.
func (g *RNG) Split() *RNG {
	return &RNG{r: rand.New(rand.NewPCG(g.r.Uint64(), g.r.Uint64()))}
}

// IntN returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand/v2 semantics.
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Float64 returns a uniform float in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() } //mclint:unused benchmark/estimator_test.go and stats' t-test tests draw normals with it

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomises the order of n elements using the provided swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) } //mclint:unused pinned by benchmark/workloads.go

// Pick returns a uniformly chosen element of xs. It panics on an empty slice.
func Pick[T any](g *RNG, xs []T) T {
	return xs[g.IntN(len(xs))]
}

// WeightedChoice is one outcome of a discrete distribution.
type WeightedChoice[T any] struct {
	Value  T
	Weight float64
}

// PickWeighted samples from a discrete distribution given by choices.
// Weights need not sum to one; non-positive weights are treated as zero.
// It panics if all weights are zero or the slice is empty.
func PickWeighted[T any](g *RNG, choices []WeightedChoice[T]) T {
	var total float64
	for _, c := range choices {
		if c.Weight > 0 {
			total += c.Weight
		}
	}
	if total <= 0 {
		panic("stats: PickWeighted requires a positive total weight")
	}
	x := g.Float64() * total
	for _, c := range choices {
		if c.Weight <= 0 {
			continue
		}
		x -= c.Weight
		if x < 0 {
			return c.Value
		}
	}
	// Floating point slack: return the last positive-weight choice.
	for i := len(choices) - 1; i >= 0; i-- {
		if choices[i].Weight > 0 {
			return choices[i].Value
		}
	}
	panic("stats: unreachable")
}
