package allocator

import (
	"math/bits"

	"sessiondir/internal/mcast"
)

// usedSet is a word-parallel bitset over address indices: the addresses a
// view shows in use. It lives inside a State (state.go).
type usedSet struct {
	words []uint64
	size  uint32
}

func (u *usedSet) reset(size uint32) {
	n := int(size+63) / 64
	if cap(u.words) < n {
		u.words = make([]uint64, n)
	} else {
		u.words = u.words[:n]
		clear(u.words)
	}
	u.size = size
}

func (u *usedSet) add(a mcast.Addr)    { u.words[a>>6] |= 1 << (uint(a) & 63) }
func (u *usedSet) remove(a mcast.Addr) { u.words[a>>6] &^= 1 << (uint(a) & 63) }

func (u *usedSet) has(a mcast.Addr) bool {
	return u.words[a>>6]&(1<<(uint(a)&63)) != 0
}

// countUsed returns the number of marked addresses in [start, end).
func (u *usedSet) countUsed(start, end uint32) uint32 {
	if start >= end {
		return 0
	}
	firstWord, lastWord := start>>6, (end-1)>>6
	loMask := ^uint64(0) << (start & 63)
	hiMask := ^uint64(0) >> (63 - (end-1)&63)
	if firstWord == lastWord {
		return uint32(bits.OnesCount64(u.words[firstWord] & loMask & hiMask))
	}
	total := bits.OnesCount64(u.words[firstWord] & loMask)
	for w := firstWord + 1; w < lastWord; w++ {
		total += bits.OnesCount64(u.words[w])
	}
	total += bits.OnesCount64(u.words[lastWord] & hiMask)
	return uint32(total)
}

// nthFree returns the j-th (0-based) unmarked address in [start, end),
// scanning in ascending order. ok is false if fewer than j+1 addresses are
// free — callers should have sized j from countUsed first.
func (u *usedSet) nthFree(start, end uint32, j uint32) (mcast.Addr, bool) {
	if start >= end {
		return 0, false
	}
	firstWord, lastWord := start>>6, (end-1)>>6
	for w := firstWord; w <= lastWord; w++ {
		free := ^u.words[w]
		if w == firstWord {
			free &= ^uint64(0) << (start & 63)
		}
		if w == lastWord {
			free &= ^uint64(0) >> (63 - (end-1)&63)
		}
		n := uint32(bits.OnesCount64(free))
		if j >= n {
			j -= n
			continue
		}
		// Select the j-th set bit of free: drop the j lowest set bits.
		for ; j > 0; j-- {
			free &= free - 1
		}
		return mcast.Addr(uint32(w)<<6 + uint32(bits.TrailingZeros64(free))), true
	}
	return 0, false
}
