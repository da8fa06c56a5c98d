package allocator

import (
	"sessiondir/internal/analytic"
	"sessiondir/internal/mcast"
)

// PartitionMap is the §2.4.1 TTL→partition-class mapping of Figure 11: the
// TTL range is cut into classes such that only one frequently-used TTL
// value falls into each, with class width growing with TTL according to
// n(t) = ceil(32·t / (255·margin)). With the paper's margin of safety of 2
// there are 55 classes.
type PartitionMap struct {
	lows    []mcast.TTL // ascending lowest TTL per class
	classOf [256]uint8  // TTL → class index
}

// NewPartitionMap builds the mapping for the given margin of safety.
func NewPartitionMap(margin int) *PartitionMap {
	bounds := analytic.PartitionLowerBounds(margin)
	pm := &PartitionMap{}
	pm.lows = make([]mcast.TTL, len(bounds))
	for i, b := range bounds {
		pm.lows[i] = mcast.TTL(b)
	}
	cls := 0
	for t := 0; t <= 255; t++ {
		for cls+1 < len(pm.lows) && mcast.TTL(t) >= pm.lows[cls+1] {
			cls++
		}
		pm.classOf[t] = uint8(cls)
	}
	return pm
}

// NumClasses returns the number of TTL classes (55 for margin 2).
func (pm *PartitionMap) NumClasses() int { return len(pm.lows) }

// ClassOf returns the class index of a TTL. Classes ascend with TTL.
func (pm *PartitionMap) ClassOf(t mcast.TTL) int { return int(pm.classOf[t]) }

// LowTTL returns the lowest TTL of class c.
func (pm *PartitionMap) LowTTL(c int) mcast.TTL { return pm.lows[c] }
