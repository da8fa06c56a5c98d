package allocator

import (
	"fmt"
	"math"

	"sessiondir/internal/mcast"
)

// DefaultTargetOccupancy is the paper's 67% band occupancy target, chosen
// from Figure 6 as roughly the fraction of a 10000-address band that can
// be allocated before propagation delay and loss alone push the clash
// probability to 0.5.
const DefaultTargetOccupancy = 0.67

// AdaptiveConfig parameterises the adaptive informed partitioned random
// allocator (Figures 8 and 12).
type AdaptiveConfig struct {
	// GapFraction is the share of the address space reserved for
	// inter-band gaps: 0.2 for AIPR-1, 0.5/0.6/0.7 for AIPR-2/3/4.
	GapFraction float64
	// TargetOccupancy is the band occupancy goal; 0 means the paper's 67%.
	TargetOccupancy float64
	// Margin is the §2.4.1 partition-map margin of safety; 0 means 2
	// (55 TTL classes).
	Margin int
	// Name overrides the display name.
	Name string
}

// Adaptive implements Deterministic Adaptive IPRMA (§2.4, Figure 8):
//
//   - one band per Figure-11 TTL class, clustered at the end of the space
//     corresponding to maximum TTL;
//   - each band's width grows with the number of *visible* sessions in it,
//     targeting the configured occupancy, starting from a single address;
//   - expanding higher-TTL bands push lower-TTL bands down the space;
//   - a configurable share of the space is reserved as inter-band gaps to
//     absorb churn in lower bands ("flash crowds") without collisions.
//
// The determinism property: a site allocating at TTL x derives the
// position of x's band purely from sessions with TTL ≥ x (band widths for
// higher classes, plus x's own band width). Those are exactly the sessions
// whose announcements any potential clash partner can also see, so — given
// a reliable announcement mechanism — all sites that could clash compute
// compatible layouts, and no clash occurs from layout disagreement alone.
type Adaptive struct {
	core
	gapFrac   float64
	occupancy float64
	pm        *PartitionMap
}

// resolved returns cfg with its defaults filled in — name is the display
// name when cfg gives none — and panics on a gap fraction outside [0,1) or
// a target occupancy outside (0,1]. NewAdaptive reads its parameters
// through it.
func (cfg AdaptiveConfig) resolved(name string) AdaptiveConfig {
	if !(cfg.GapFraction >= 0 && cfg.GapFraction < 1) { // also false for NaN
		panic(fmt.Sprintf("allocator: gap fraction %v outside [0,1)", cfg.GapFraction))
	}
	if cfg.TargetOccupancy == 0 {
		cfg.TargetOccupancy = DefaultTargetOccupancy
	}
	if !(cfg.TargetOccupancy > 0 && cfg.TargetOccupancy <= 1) {
		panic(fmt.Sprintf("allocator: target occupancy %v outside (0,1]", cfg.TargetOccupancy))
	}
	if cfg.Margin == 0 {
		cfg.Margin = 2
	}
	if cfg.Name == "" {
		cfg.Name = name
	}
	return cfg
}

// NewAdaptive returns a Deterministic Adaptive IPRMA allocator.
func NewAdaptive(size uint32, cfg AdaptiveConfig) *Adaptive {
	validateSize(size)
	cfg = cfg.resolved(fmt.Sprintf("AIPR (%d%% gap)", int(math.Round(cfg.GapFraction*100))))
	a := &Adaptive{gapFrac: cfg.GapFraction, occupancy: cfg.TargetOccupancy, pm: NewPartitionMap(cfg.Margin)}
	a.core = core{name: cfg.Name, size: size, classOf: a.pm.classOf, classes: a.pm.NumClasses(), adaptive: true, rule: a}
	return a
}

// Band is one laid-out address band: [Start, Start+Width).
type Band struct {
	Class int       // partition-map class index
	Low   mcast.TTL // lowest TTL of the class
	Start uint32
	Width uint32
	Count int // visible sessions in the class
}

// Layout computes the band layout a site with the given view uses. Bands
// are returned in descending TTL order (top of the space first). Only the
// classes present in the partition map are laid out; empty classes get the
// minimum single-address width, as in the paper's "initial band allocation
// allocates only a single address to each band".
func (a *Adaptive) Layout(visible []SessionInfo) []Band {
	f := a.fold(visible)
	defer foldPool.Put(f)
	bands := make([]Band, 0, len(f.counts))
	walkFig8(a.size, a.gapFrac, a.occupancy, f.counts, func(c int, start, width uint32) bool {
		bands = append(bands, Band{Class: c, Low: a.pm.LowTTL(c), Start: start, Width: width, Count: f.counts[c]})
		return true
	})
	return bands
}

// band is DAIPR's rule: walk down from the top of the space to the class.
func (a *Adaptive) band(counts []int, cls int) (start, width uint32) {
	walkFig8(a.size, a.gapFrac, a.occupancy, counts, func(c int, s, w uint32) bool {
		start, width = s, w
		return c != cls
	})
	return start, width
}

// walkFig8 runs the Figure-8 cursor walk over the bands whose session
// counts are given bottom-up: from the last, at the top of the space,
// downward, yielding each band's bounds until yield returns false. A band
// is a single address when empty, else wide enough to hold its sessions at
// the target occupancy; a band holding sessions leaves a gap below it. It
// is the single source of truth for band placement: Adaptive.Layout
// materialises what it yields, Adaptive.band stops it at one class.
func walkFig8(size uint32, gapFrac, occupancy float64, counts []int, yield func(i int, start, width uint32) bool) {
	cursor := int64(size) // exclusive top of the next band
	for i := len(counts) - 1; i >= 0; i-- {
		width := int64(1)
		if counts[i] > 0 {
			width = int64(math.Ceil(float64(counts[i]) / occupancy))
		}
		start := cursor - width
		if start < 0 {
			start = 0
			if width > int64(size) {
				width = int64(size)
			}
		}
		if !yield(i, uint32(start), uint32(width)) {
			return
		}
		cursor = start
		if counts[i] > 0 {
			cursor -= gapBelow(size, gapFrac)
		}
		if cursor < 0 {
			cursor = 0
		}
	}
}

// expectedActiveBands is the band-count assumption the inter-band gap
// budget is divided by: TTL values cluster on a handful of conventional
// scopes (the paper's §2.3 example uses 8 partitions; DS4 exercises 7).
const expectedActiveBands = 8

// gapBelow sizes the slack left under a band holding sessions: the paper
// wants "a small gap between partitions with sessions in them so that
// partitions can move ... without colliding", while empty single-address
// bands pack tightly. The gap is a fixed share of the space — gapFrac
// divided across the expected number of active bands — so that it scales
// with the address space (absorbing band-width fluctuations that grow with
// the population) while, critically for the determinism property, never
// depending on the occupancy of bands *below* the one it protects.
func gapBelow(size uint32, gapFrac float64) int64 {
	if gapFrac <= 0 {
		return 0
	}
	return int64(math.Ceil(float64(size) * gapFrac / expectedActiveBands))
}
