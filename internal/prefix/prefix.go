// Package prefix implements the paper's §4.1 proposal — the future-work
// direction that historically became MASC/BGMP: split multicast address
// allocation into two layers.
//
//   - An upper "prefix" layer dynamically associates contiguous address
//     blocks with network regions, using claim-listen-defend over long
//     timescales. Because claims change slowly, the propagation-delay
//     window in which two regions can claim the same block unseen is tiny,
//     so prefix collisions are rare and cheap to resolve.
//   - A lower layer allocates individual addresses *within* the region's
//     blocks using the flat machinery of this repository (informed random
//     here). Address-usage announcements stay inside the region, so they
//     can be sent more often: the effective invisible fraction i is much
//     smaller than with one global announcement channel, and Equation 1
//     packing improves accordingly.
//
// The package provides both the mechanism (Pool, RegionAllocator, the
// claim protocol) and a simulation harness comparing hierarchical against
// flat allocation (see Experiment).
package prefix

import (
	"fmt"
	"sort"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// Block is one claimable address block: indices [Start, Start+Size).
type Block struct {
	Start uint32
	Size  uint32
}

// End returns the exclusive upper bound of the block.
func (b Block) End() uint32 { return b.Start + b.Size }

// Overlaps reports whether two blocks share any address.
func (b Block) Overlaps(o Block) bool {
	return b.Start < o.End() && o.Start < b.End()
}

// String implements fmt.Stringer.
func (b Block) String() string { return fmt.Sprintf("[%d,%d)", b.Start, b.End()) }

// ClaimState is the lifecycle of a prefix claim.
type ClaimState int

const (
	// ClaimPending: announced, within its listen period, not yet usable.
	ClaimPending ClaimState = iota
	// ClaimActive: survived the listen period; addresses may be allocated.
	ClaimActive
	// ClaimAbandoned: lost a collision and was withdrawn.
	ClaimAbandoned
)

// String implements fmt.Stringer.
func (s ClaimState) String() string {
	switch s {
	case ClaimPending:
		return "pending"
	case ClaimActive:
		return "active"
	case ClaimAbandoned:
		return "abandoned"
	default:
		return fmt.Sprintf("ClaimState(%d)", int(s))
	}
}

// Claim is one region's claim on a block.
type Claim struct {
	Region int
	Block  Block
	State  ClaimState
	MadeAt int64 // claim epoch (abstract ticks)
	seq    uint64
}

// PoolConfig parameterises the prefix layer.
type PoolConfig struct {
	// SpaceSize is the total number of allocatable addresses.
	SpaceSize uint32
	// BlockSize is the claim granularity (the "prefix" length). The paper
	// suggests flat allocation is reasonable up to ~10 000 addresses; any
	// granularity at or below that works.
	BlockSize uint32
	// ListenTicks is how long a claim stays pending before activating.
	// Longer listening shrinks the collision window further.
	ListenTicks int64
	// Regions is the number of participating regions.
	Regions int
}

// Pool is the global prefix-layer state as seen by an omniscient observer
// (the simulation's ground truth). Each region additionally has its own,
// possibly stale, view — staleness is injected at claim time via the
// visibility probability.
type Pool struct {
	cfg     PoolConfig
	claims  []*Claim
	nextSeq uint64
}

// NewPool validates the configuration and returns an empty pool.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if cfg.SpaceSize == 0 {
		return nil, fmt.Errorf("prefix: zero space")
	}
	if cfg.BlockSize == 0 || cfg.BlockSize > cfg.SpaceSize {
		return nil, fmt.Errorf("prefix: block size %d invalid for space %d", cfg.BlockSize, cfg.SpaceSize)
	}
	if cfg.Regions < 1 {
		return nil, fmt.Errorf("prefix: need at least one region")
	}
	if cfg.ListenTicks < 0 {
		return nil, fmt.Errorf("prefix: negative listen period")
	}
	return &Pool{cfg: cfg}, nil
}

// NumBlocks returns the number of claimable blocks.
func (p *Pool) NumBlocks() uint32 { return p.cfg.SpaceSize / p.cfg.BlockSize }

// blockAt returns the i-th block.
func (p *Pool) blockAt(i uint32) Block {
	return Block{Start: i * p.cfg.BlockSize, Size: p.cfg.BlockSize}
}

// liveClaims returns pending + active claims.
func (p *Pool) liveClaims() []*Claim {
	out := make([]*Claim, 0, len(p.claims))
	for _, c := range p.claims {
		if c.State != ClaimAbandoned {
			out = append(out, c)
		}
	}
	return out
}

// ClaimBlock has region claim one currently-free block (as that region
// sees it): each live claim by another region is visible with probability
// 1−invisible. A region never claims over a block it can see claimed; an
// invisible claim can produce a collision, resolved at activation time by
// Tick. Returns the new claim, or nil if the region sees no free block.
func (p *Pool) ClaimBlock(region int, now int64, invisible float64, rng *stats.RNG) *Claim {
	visibleTaken := make([]bool, p.NumBlocks())
	for _, c := range p.liveClaims() {
		seen := c.Region == region || !rng.Bool(invisible)
		if seen {
			idx := c.Block.Start / p.cfg.BlockSize
			visibleTaken[idx] = true
		}
	}
	var free []uint32
	for i := uint32(0); i < p.NumBlocks(); i++ {
		if !visibleTaken[i] {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return nil
	}
	idx := free[rng.IntN(len(free))]
	p.nextSeq++
	claim := &Claim{
		Region: region,
		Block:  p.blockAt(idx),
		State:  ClaimPending,
		MadeAt: now,
		seq:    p.nextSeq,
	}
	p.claims = append(p.claims, claim)
	return claim
}

// Release abandons a claim (a region shrinking its holdings).
func (p *Pool) Release(c *Claim) { c.State = ClaimAbandoned }

// Tick advances the claim protocol to time now: collisions among
// pending/active claims on the same block are resolved in favour of the
// earlier claim (ties by sequence number — in the real protocol, lowest
// origin address), and surviving pending claims past their listen period
// activate. It returns the number of collisions resolved this tick.
func (p *Pool) Tick(now int64) int {
	collisions := 0
	// Order live claims by block, earliest claim first within a block:
	// each claim after the first on its block loses.
	live := p.liveClaims()
	sort.Slice(live, func(i, j int) bool {
		a, b := live[i], live[j]
		if a.Block.Start != b.Block.Start {
			return a.Block.Start < b.Block.Start
		}
		if a.MadeAt != b.MadeAt {
			return a.MadeAt < b.MadeAt
		}
		return a.seq < b.seq
	})
	for i := 1; i < len(live); i++ {
		if live[i].Block.Start == live[i-1].Block.Start {
			live[i].State = ClaimAbandoned
			collisions++
		}
	}
	for _, c := range p.liveClaims() {
		if c.State == ClaimPending && now-c.MadeAt >= p.cfg.ListenTicks {
			c.State = ClaimActive
		}
	}
	return collisions
}

// ActiveBlocks returns the blocks a region currently holds active.
func (p *Pool) ActiveBlocks(region int) []Block {
	var out []Block
	for _, c := range p.claims {
		if c.Region == region && c.State == ClaimActive {
			out = append(out, c.Block)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Invariant checks that no two active claims overlap — the property the
// claim protocol maintains. Used by tests and the simulation harness.
func (p *Pool) Invariant() error {
	var active []*Claim
	for _, c := range p.claims {
		if c.State == ClaimActive {
			active = append(active, c)
		}
	}
	for i := 0; i < len(active); i++ {
		for j := i + 1; j < len(active); j++ {
			if active[i].Block.Overlaps(active[j].Block) {
				return fmt.Errorf("prefix: active claims overlap: region %d %s vs region %d %s",
					active[i].Region, active[i].Block, active[j].Region, active[j].Block)
			}
		}
	}
	return nil
}

// RegionAllocator is the lower layer: informed-random allocation of
// individual addresses within a region's active blocks. The invisible
// fraction here reflects *local* announcement timeliness — small, because
// usage announcements never leave the region.
type RegionAllocator struct {
	Region int
	pool   *Pool
	// used tracks the region's own allocations (ground truth within the
	// region; visibility noise is applied per allocation).
	used map[mcast.Addr]bool
}

// NewRegionAllocator returns the lower-layer allocator for one region.
func NewRegionAllocator(pool *Pool, region int) *RegionAllocator {
	return &RegionAllocator{Region: region, pool: pool, used: make(map[mcast.Addr]bool)}
}

// Holdings returns the total addresses in active blocks.
func (r *RegionAllocator) Holdings() uint32 {
	var total uint32
	for _, b := range r.pool.ActiveBlocks(r.Region) {
		total += b.Size
	}
	return total
}

// InUse returns the region's live allocation count.
func (r *RegionAllocator) InUse() int { return len(r.used) }

// Allocate picks an address from the region's blocks. Each existing local
// allocation is invisible with probability invisibleLocal; picking an
// invisible in-use address is a *clash*, reported via the second return.
func (r *RegionAllocator) Allocate(invisibleLocal float64, rng *stats.RNG) (mcast.Addr, bool, error) {
	blocks := r.pool.ActiveBlocks(r.Region)
	if len(blocks) == 0 {
		return 0, false, fmt.Errorf("prefix: region %d holds no active blocks", r.Region)
	}
	a, clash, ok := informedPick(blocks, r.used, invisibleLocal, rng)
	if !ok {
		return 0, false, fmt.Errorf("prefix: region %d blocks full", r.Region)
	}
	return a, clash, nil
}

// informedPick is informed-random allocation under imperfect visibility:
// each in-use address of blocks is unseen with probability invisible (one
// draw per in-use address, in address order), and the pick is uniform over
// the addresses that look free. It marks the pick used and reports whether
// it already was — a clash. ok is false, and nothing is drawn after the
// visibility draws, when nothing looks free.
func informedPick(blocks []Block, used map[mcast.Addr]bool, invisible float64, rng *stats.RNG) (a mcast.Addr, clash, ok bool) {
	var candidates []mcast.Addr
	for _, b := range blocks {
		for off := uint32(0); off < b.Size; off++ {
			a := mcast.Addr(b.Start + off)
			if used[a] && !rng.Bool(invisible) {
				continue // visible in-use address
			}
			candidates = append(candidates, a)
		}
	}
	if len(candidates) == 0 {
		return 0, false, false
	}
	a = candidates[rng.IntN(len(candidates))]
	clash = used[a]
	used[a] = true
	return a, clash, true
}

// Free releases an address.
func (r *RegionAllocator) Free(a mcast.Addr) { delete(r.used, a) }
