package allocator

import (
	"fmt"
	"math/bits"
	"sync"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// The paper's informed algorithms are one procedure — never pick a visible
// address, pick uniformly within the band of the new session's scope — and
// differ in a single decision: where that band is. core is the procedure;
// a rule is the decision.

// rule places the band [start, start+width) of scope class cls. counts
// holds the visible sessions per class, and is nil for a rule whose bands
// do not depend on them.
type rule interface {
	band(counts []int, cls int) (start, width uint32)
}

// core implements Allocator for InformedRandom, StaticPartitioned, Adaptive
// and Hybrid, which embed it and supply the rule. It is immutable once
// built; per-call state lives in the caller's State and in pooled scratch.
type core struct {
	name    string
	size    uint32
	classOf [256]uint8 // TTL → the rule's class index, tabulated once
	classes int
	// adaptive rules place bands from the class counts and let a full band
	// grow downward (Figure 8); the others have fixed bands, fail when one
	// fills, and never read the counts, so the pick loop does not sum them.
	adaptive bool
	rule     rule
}

// tabulate records a rule's TTL → class mapping, so that summing a
// State's TTL counts into classes costs a table read per TTL present, not
// the rule's own comparisons.
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

// scratch is what a call works in: the State a slice view is folded into
// and the class counts the rule reads. It is pooled rather than a field
// of the allocator, which keeps Allocator values stateless and safe to
// share between the experiment engine's workers; and the counts live here
// and not on the pick loop's stack because they reach the rule through an
// interface call, which would move a stack buffer to the heap.
type scratch struct {
	state  State
	counts [256]int // classOf's range
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// fold reduces a view to what the pick loop reads: it marks the view's
// addresses in s's bitset, emptied over the space first, and returns, for
// a rule that reads them, the sessions per class, counted in buf (nil for
// any other rule). s's TTL counts, and its count of a shared address's
// members (a map write each, 3× the fold of 500 random sessions), are
// left as they are: in the pooled State a slice view is folded into they
// are empty, and the pick loop, which neither reads them nor removes
// anything but its own picks, leaves them so.
func (c *core) fold(s *State, buf *[256]int, visible []SessionInfo) []int {
	s.used.reset(c.size)
	words, size := s.used.words, c.size
	if !c.adaptive {
		for _, v := range visible {
			if uint32(v.Addr) < size {
				words[v.Addr>>6] |= 1 << (v.Addr & 63)
			}
		}
		return nil
	}
	counts := buf[:c.classes]
	clear(counts)
	for _, v := range visible {
		counts[c.classOf[v.TTL]]++
		if uint32(v.Addr) < size {
			words[v.Addr>>6] |= 1 << (v.Addr & 63)
		}
	}
	return counts
}

// classCounts sets counts[i] to the members of class i in s, reading only
// the TTLs s holds.
func (c *core) classCounts(s *State, counts []int) {
	clear(counts)
	for w, word := range s.present {
		for ; word != 0; word &= word - 1 {
			t := w<<6 | bits.TrailingZeros64(word)
			counts[c.classOf[t]] += int(s.ttls[t])
		}
	}
}

// countsOf returns a view's class counts, folded as AllocateBatch folds it.
func (c *core) countsOf(visible []SessionInfo) []int {
	var s State
	return c.fold(&s, new([256]int), visible)
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

// AllocateBatch implements Allocator: the pick loop over the view folded.
func (c *core) AllocateBatch(visible []SessionInfo, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	counts := c.fold(&sc.state, &sc.counts, visible)
	return c.pick(&sc.state, counts, ttl, k, dst, rng)
}

// AllocateFrom implements StateAllocator: the pick loop over s.
func (c *core) AllocateFrom(s *State, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	if !c.adaptive {
		return c.pick(s, nil, ttl, k, dst, rng)
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	counts := sc.counts[:c.classes]
	c.classCounts(s, counts)
	return c.pick(s, counts, ttl, k, dst, rng)
}

// pick is the pick loop over s and its class counts (nil for a rule that
// does not read them). Each pick is added to s and bumps its class, so the
// next pick sees what a sequential Allocate over the extended view would:
// the band is placed again from the updated counts, pure arithmetic over
// the class list. The picks leave s before it returns.
func (c *core) pick(s *State, counts []int, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	cls, first := int(c.classOf[ttl]), len(dst)
	var err error
	for len(dst)-first < k {
		start, width := c.rule.band(counts, cls)
		var addr mcast.Addr
		var ok bool
		if c.adaptive {
			// A visibly full band expands downward — the paper's band
			// growth pushing lower bands down the space. It may stray
			// into their territory: that is the clash risk the inter-band
			// gaps exist to absorb.
			addr, ok = expandingPick(start, width, &s.used, rng)
		} else {
			// A fixed band that fills fails: the paper's IPR-7 curves are
			// "limited by higher scope bands filling completely".
			addr, ok = pickFreeInRange(start, width, &s.used, rng)
		}
		if !ok {
			err = fmt.Errorf("%w (class %d, TTL %d, %s)", ErrSpaceFull, cls, ttl, c.name)
			break
		}
		s.Add(addr, ttl)
		if c.adaptive {
			counts[cls]++
		}
		dst = append(dst, addr)
	}
	for _, a := range dst[first:] {
		s.Remove(a, ttl)
	}
	return dst, err
}
