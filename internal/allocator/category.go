package allocator

import (
	"fmt"
	"sort"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// CategoryAdaptive implements the alternative sketched in the paper's
// footnote 8: partition the address space *by announcement category* along
// AIPRMA lines, "given a total ordering of categories sorted using scope
// as a primary index". Bands are keyed by (TTL class, category), ordered
// by descending TTL class and then ascending category name, laid out from
// the top of the space exactly like Deterministic Adaptive IPRMA.
//
// The same determinism argument carries over: a band's position depends
// only on bands ordered above it, which belong to scopes at least as wide
// — visible to every potential clash partner. The paper notes the costs
// (category summaries need their own announcement address and invite
// denial-of-service), which is why the locality-based §4.1 hierarchy won;
// this implementation exists to make that comparison concrete.
type CategoryAdaptive struct {
	size      uint32
	gapFrac   float64
	occupancy float64
	pm        *PartitionMap
	name      string
}

// CategorySession is the allocator view of one session with its category.
type CategorySession struct {
	Addr     mcast.Addr
	TTL      mcast.TTL
	Category string
}

// CategoryBand is one laid-out (TTL class, category) band.
type CategoryBand struct {
	Class    int
	Category string
	Start    uint32
	Width    uint32
	Count    int
}

// NewCategoryAdaptive builds the allocator; cfg fields have the same
// meaning and defaults as for NewAdaptive.
func NewCategoryAdaptive(size uint32, cfg AdaptiveConfig) *CategoryAdaptive {
	validateSize(size)
	cfg = cfg.resolved("Category-AIPR")
	return &CategoryAdaptive{
		size:      size,
		gapFrac:   cfg.GapFraction,
		occupancy: cfg.TargetOccupancy,
		pm:        NewPartitionMap(cfg.Margin),
		name:      cfg.Name,
	}
}

// Name identifies the algorithm.
func (a *CategoryAdaptive) Name() string { return a.name }

// Size returns the managed space size.
func (a *CategoryAdaptive) Size() uint32 { return a.size }

type catKey struct {
	class    int
	category string
}

// Layout computes the band layout for a view, guaranteeing a band exists
// for the given request key even when no session of that category is
// visible yet.
func (a *CategoryAdaptive) Layout(visible []CategorySession, reqTTL mcast.TTL, reqCategory string) []CategoryBand {
	counts := map[catKey]int{}
	for _, s := range visible {
		counts[catKey{a.pm.ClassOf(s.TTL), s.Category}]++
	}
	reqKey := catKey{a.pm.ClassOf(reqTTL), reqCategory}
	if _, ok := counts[reqKey]; !ok {
		counts[reqKey] = 0
	}
	keys := make([]catKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	// Total order: scope (class) descending is primary, category name
	// ascending is secondary — the footnote's prescription. walkFig8 lays
	// out from the last band down, so the keys are sorted bottom-up.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].class != keys[j].class {
			return keys[i].class < keys[j].class
		}
		return keys[i].category > keys[j].category
	})
	ordered := make([]int, len(keys))
	for i, k := range keys {
		ordered[i] = counts[k]
	}
	bands := make([]CategoryBand, 0, len(keys))
	walkFig8(a.size, a.gapFrac, a.occupancy, ordered, func(i int, start, width uint32) bool {
		bands = append(bands, CategoryBand{
			Class:    keys[i].class,
			Category: keys[i].category,
			Start:    start,
			Width:    width,
			Count:    ordered[i],
		})
		return true
	})
	return bands
}

// Allocate picks an address for a new session of the given scope and
// category.
func (a *CategoryAdaptive) Allocate(visible []CategorySession, ttl mcast.TTL, category string, rng *stats.RNG) (mcast.Addr, error) {
	bands := a.Layout(visible, ttl, category)
	reqClass := a.pm.ClassOf(ttl)
	var band CategoryBand
	found := false
	for _, b := range bands {
		if b.Class == reqClass && b.Category == category {
			band, found = b, true
			break
		}
	}
	if !found {
		return 0, fmt.Errorf("allocator: no band for TTL %d category %q (bug)", ttl, category)
	}
	f := newFolded(a.size, 0)
	defer foldPool.Put(f)
	for _, s := range visible {
		f.used.mark(s.Addr)
	}
	if addr, ok := expandingPick(band.Start, band.Width, &f.used, rng); ok {
		return addr, nil
	}
	return 0, fmt.Errorf("%w (class %d, category %q, %s)", ErrSpaceFull, reqClass, category, a.name)
}
