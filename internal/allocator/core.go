package allocator

import (
	"fmt"
	"sync"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// The paper's informed algorithms are one procedure — never pick a visible
// address, pick uniformly within the band of the new session's scope — and
// differ in a single decision: where that band is. core is the procedure;
// a rule is the decision.

// rule places the band [start, start+width) of scope class cls. counts
// holds the visible sessions per class, and is empty for a rule whose
// bands do not depend on them.
type rule interface {
	band(counts []int, cls int) (start, width uint32)
}

// core implements Allocator for InformedRandom, StaticPartitioned, Adaptive
// and Hybrid, which embed it and supply the rule. It is immutable once
// built; per-call state lives in a pooled folded.
type core struct {
	name    string
	size    uint32
	classOf [256]uint8 // TTL → the rule's class index, tabulated once
	classes int
	// adaptive rules place bands from the class counts and let a full band
	// grow downward (Figure 8); the others have fixed bands, fail when one
	// fills, and never read the counts — so fold does not take them: with
	// one class, IR would serialise a view's worth of increments on a
	// single slot (measured 2.7× on Allocate over 500 sessions).
	adaptive bool
	rule     rule
}

// tabulate records a rule's TTL → class mapping, so that folding a view
// costs a table read per session, not the rule's own comparisons.
func (c *core) tabulate(classes int, classOf func(mcast.TTL) int) {
	c.classes = classes
	for t := range c.classOf {
		c.classOf[t] = uint8(classOf(mcast.TTL(t)))
	}
}

// Name implements Allocator.
func (c *core) Name() string { return c.name }

// Size implements Allocator.
func (c *core) Size() uint32 { return c.size }

// folded is a view reduced to what allocation reads: the used-address
// bitset and, for adaptive rules, the sessions per class.
type folded struct {
	used   usedSet
	counts []int
}

// foldPool recycles folded values across calls. Pooling (rather than a
// scratch field on the allocator) keeps Allocator values stateless and
// safe to share between the experiment engine's workers. counts lives
// here and not on Allocate's stack because it reaches the rule through an
// interface call, which would move a stack buffer to the heap.
var foldPool = sync.Pool{New: func() any { return new(folded) }}

// newFolded returns a pooled folded with an empty bitset over [0, size)
// and zeroed counts for the given number of classes. Return it with
// foldPool.Put.
func newFolded(size uint32, classes int) *folded {
	f := foldPool.Get().(*folded)
	f.used.reset(size)
	if cap(f.counts) < classes {
		f.counts = make([]int, classes)
	}
	f.counts = f.counts[:classes]
	clear(f.counts)
	return f
}

// fold reduces a view in one pass over it.
func (c *core) fold(visible []SessionInfo) *folded {
	if !c.adaptive {
		f := newFolded(c.size, 0)
		for _, s := range visible {
			f.used.mark(s.Addr)
		}
		return f
	}
	f := newFolded(c.size, c.classes)
	for _, s := range visible {
		f.counts[c.classOf[s.TTL]]++
		f.used.mark(s.Addr)
	}
	return f
}

// Allocate implements Allocator: a batch of one.
func (c *core) Allocate(visible []SessionInfo, ttl mcast.TTL, rng *stats.RNG) (mcast.Addr, error) {
	var one [1]mcast.Addr
	got, err := c.AllocateBatch(visible, ttl, 1, one[:0], rng)
	if err != nil {
		return 0, err
	}
	return got[0], nil
}

// AllocateBatch implements Allocator. The view is folded once; each pick
// marks its own address and bumps its class, so the next pick sees what a
// sequential Allocate over the extended view would: the band is placed
// again from the updated counts, pure arithmetic over the class list.
func (c *core) AllocateBatch(visible []SessionInfo, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	f := c.fold(visible)
	defer foldPool.Put(f)
	cls := int(c.classOf[ttl])
	for i := 0; i < k; i++ {
		start, width := c.rule.band(f.counts, cls)
		var addr mcast.Addr
		var ok bool
		if c.adaptive {
			// A visibly full band expands downward — the paper's band
			// growth pushing lower bands down the space. It may stray
			// into their territory: that is the clash risk the inter-band
			// gaps exist to absorb.
			addr, ok = expandingPick(start, width, &f.used, rng)
		} else {
			// A fixed band that fills fails: the paper's IPR-7 curves are
			// "limited by higher scope bands filling completely".
			addr, ok = pickFreeInRange(start, width, &f.used, rng)
		}
		if !ok {
			return dst, fmt.Errorf("%w (class %d, TTL %d, %s)", ErrSpaceFull, cls, ttl, c.name)
		}
		f.used.add(addr)
		if c.adaptive {
			f.counts[cls]++
		}
		dst = append(dst, addr)
	}
	return dst, nil
}
