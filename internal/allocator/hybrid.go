package allocator

import (
	"math"

	"sessiondir/internal/mcast"
)

// Hybrid is AIPR-H from Figure 12: a hybrid of IPR 7-band and AIPR-1.
// It keeps IPR-7's seven static TTL bands, but sizes and positions them
// adaptively:
//
//   - the bands initially occupy the top 50% of the address space, with
//     20% of the space used for inter-band gaps;
//   - an expanding high-TTL band pushes lower bands downwards;
//   - a band that is pushed does not move its top below its initial
//     position unless forced, and when pushed while under 67% occupancy it
//     is reduced in width rather than displaced further.
type Hybrid struct {
	core
	occupancy float64
	seps      []mcast.TTL
	initTop   []uint32 // initial top (exclusive) per band, descending order
	initWidth uint32
	perGap    uint32
}

// NewHybrid returns an AIPR-H allocator over a space of the given size.
func NewHybrid(size uint32) *Hybrid {
	validateSize(size)
	seps := IPR7Separators()
	nBands := len(seps) + 1
	// Top 50% of the space = bands (30%) + gaps (20%).
	gapBudget := uint32(0.2 * float64(size))
	perGap := gapBudget / uint32(nBands)
	bandBudget := size/2 - minU32(gapBudget, size/2)
	initWidth := bandBudget / uint32(nBands)
	if initWidth == 0 {
		initWidth = 1
	}
	h := &Hybrid{
		occupancy: DefaultTargetOccupancy,
		seps:      seps,
		initWidth: initWidth,
		perGap:    perGap,
	}
	h.core = core{name: "AIPR-H (hybrid)", size: size, adaptive: true, rule: h}
	h.tabulate(nBands, h.bandOf)
	// Initial tops, highest band first at the very top of the space.
	h.initTop = make([]uint32, nBands)
	cursor := size
	for i := 0; i < nBands; i++ { // i = 0 is the highest-TTL band
		h.initTop[i] = cursor
		next := int64(cursor) - int64(initWidth) - int64(perGap)
		if next < 0 {
			next = 0
		}
		cursor = uint32(next)
	}
	return h
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// bandOf is IPR-7's TTL → band mapping numbered from the top: band 0 is
// the highest-TTL band. The core's class table is tabulated from it.
func (h *Hybrid) bandOf(t mcast.TTL) int { return len(h.seps) - separatorsUpTo(h.seps, t) }

// Layout computes the seven bands, ordered highest TTL first.
func (h *Hybrid) Layout(visible []SessionInfo) []Band { //mclint:unused allocator tests check AIPR-H's band layout through it
	counts := h.countsOf(visible)
	nBands := len(counts)
	bands := make([]Band, 0, nBands)
	h.walkBands(counts, func(i int, start, width uint32) bool {
		bands = append(bands, Band{
			Class: nBands - 1 - i, // class index ascending with TTL
			Low:   h.lowTTLOfBand(i),
			Start: start,
			Width: width,
			Count: counts[i],
		})
		return true
	})
	return bands
}

// band is AIPR-H's rule: walk down from the top of the space to the band.
func (h *Hybrid) band(counts []int, cls int) (start, width uint32) {
	h.walkBands(counts, func(i int, s, w uint32) bool {
		start, width = s, w
		return i != cls
	})
	return start, width
}

// walkBands runs the hybrid's push-and-shrink cursor walk top-down (band 0
// is the highest-TTL band), yielding each band's bounds; yield returning
// false stops the walk. Shared by Layout and band.
func (h *Hybrid) walkBands(counts []int, yield func(i int, start, width uint32) bool) {
	cursor := h.size
	for i := 0; i < len(counts); i++ {
		top := h.initTop[i]
		pushed := cursor < top
		if pushed {
			top = cursor
		}
		width := uint32(math.Ceil(float64(counts[i]) / h.occupancy))
		if width < 1 {
			width = 1
		}
		if !pushed && width < h.initWidth {
			// Unpushed: keep at least the initial width. (A band pushed
			// from above while under-occupied shrinks to need instead.)
			width = h.initWidth
		}
		if width > top {
			width = top // clamp at the bottom of the space
		}
		start := top - width
		if !yield(i, start, width) {
			return
		}
		next := int64(start) - int64(h.perGap)
		if next < 0 {
			next = 0
		}
		cursor = uint32(next)
	}
}

func (h *Hybrid) lowTTLOfBand(i int) mcast.TTL {
	// Band i counts from the top; band nBands-1 starts at TTL 0.
	idx := len(h.seps) - i // number of separators below the band
	if idx == 0 {
		return 0
	}
	return h.seps[idx-1]
}
