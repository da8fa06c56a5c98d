// Package fault is the one packet-fault model in the tree: what can
// happen to a packet (loss, duplication, single-bit corruption, delay and
// hence reordering), the order in which the seeded draws that decide it
// are made, how a directed link's stream derives from a run seed, and
// what a partition is. des.Net (in-process: one stream per network, one
// Process per receiver, virtual clock) and the UDP relay (between
// processes: one LinkRNG stream and Process per directed link, wall
// clock) both call it and carry no copy.
//
// The draw order, per packet, is: loss — stop here if the packet is
// dropped — duplication, corruption and its bit index, delay, the
// duplicate's delay. A probability of 0 or 1 and a window with DelayMax
// <= DelayMin draw nothing. The k-th fate on a stream is therefore a
// function of the stream's seed, the profile history and the lengths of
// packets 0..k (the bit-index draw is bounded by the payload length), and
// replays whenever the packet sequence replays. Partitions draw nothing,
// so splitting and healing never shift a schedule.
package fault

import (
	"fmt"
	"time"

	"sessiondir/internal/stats"
)

// Profile describes the fault processes applied to one stream of packets.
// The zero value injects nothing.
type Profile struct {
	// Loss is the independent per-packet drop probability.
	Loss float64
	// Duplicate is the probability a packet is delivered twice. The copy
	// draws its own delay, so duplicates also arrive reordered.
	Duplicate float64
	// Corrupt is the probability a single uniformly chosen bit of the
	// packet is flipped (the receiver's parser must quarantine it). A
	// duplicate carries the same flipped bit.
	Corrupt float64
	// DelayMin and DelayMax bound a uniform per-packet delay over
	// [DelayMin, DelayMax). Both zero delivers inline; DelayMax > DelayMin
	// reorders packets whose sampled delays cross.
	DelayMin, DelayMax time.Duration
}

// validProb is written so that NaN fails: rng.Bool(NaN) is never true, so
// an accepted NaN would silently disarm the fault it configures.
func validProb(p float64) bool { return p >= 0 && p <= 1 }

// Validate rejects probabilities outside [0,1] (NaN included) and
// negative or inverted delay windows.
func (p Profile) Validate() error {
	for _, prob := range []float64{p.Loss, p.Duplicate, p.Corrupt} {
		if !validProb(prob) {
			return fmt.Errorf("fault: probability %v outside [0,1]", prob)
		}
	}
	if p.DelayMin < 0 || p.DelayMax < p.DelayMin {
		return fmt.Errorf("fault: delay window %s:%s negative or inverted", p.DelayMin, p.DelayMax)
	}
	return nil
}

// Stats counts one process's decisions.
type Stats struct {
	Packets    uint64 // packets offered to the fault process
	Dropped    uint64
	Duplicated uint64
	Corrupted  uint64
}

// Fate is what happens to one packet.
type Fate struct {
	Drop       bool
	Dup        bool
	CorruptBit int // bit index to Flip in both copies, -1 = none
	Delay      time.Duration
	DupDelay   time.Duration
}

// Process is one stream's fault process: the profile in force and the
// counters. Swapping Profile mid-run keeps the counters. Not safe for
// concurrent use; the caller serialises Next with whatever guards its RNG.
type Process struct {
	Profile
	Stats
}

// Next draws the fate of the next packet, payloadLen bytes long, from
// rng, in the package's one draw order.
func (s *Process) Next(rng *stats.RNG, payloadLen int) Fate {
	s.Packets++
	if rng.Bool(s.Loss) {
		s.Dropped++
		return Fate{Drop: true, CorruptBit: -1}
	}
	f := Fate{CorruptBit: -1}
	if rng.Bool(s.Duplicate) {
		f.Dup = true
		s.Duplicated++
	}
	if payloadLen > 0 && rng.Bool(s.Corrupt) {
		f.CorruptBit = rng.IntN(payloadLen * 8)
		s.Corrupted++
	}
	f.Delay = s.delay(rng)
	if f.Dup {
		f.DupDelay = s.delay(rng)
	}
	return f
}

func (p *Profile) delay(rng *stats.RNG) time.Duration {
	if p.DelayMax <= p.DelayMin {
		return p.DelayMin
	}
	return p.DelayMin + time.Duration(rng.Float64()*float64(p.DelayMax-p.DelayMin))
}

// Flip returns a copy of data with bit (little-endian within the byte)
// flipped.
func Flip(data []byte, bit int) []byte {
	cp := append([]byte(nil), data...)
	cp[bit/8] ^= 1 << (bit % 8)
	return cp
}

// LinkRNG returns the stream of the directed link i→j under a run seed.
// The pair is mixed in with two odd 64-bit constants, so streams are
// pair-unique and depend on (seed, i, j) alone — not on the order links
// are created or carry traffic.
func LinkRNG(seed uint64, i, j int) *stats.RNG {
	return stats.NewRNG(seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15) ^ (uint64(j+1) * 0xbf58476d1ce4e5b9))
}

// Groups is a partition of a fabric: member id → group index. The nil
// map is the fully connected fabric. A Groups is built complete by
// Partition and never mutated, so a published value may be read without
// a lock.
type Groups map[int]int

// Partition splits the fabric into isolated groups of member ids. A
// member named in no group is cut off from everyone; Partition() with no
// groups severs every pair.
func Partition(groups ...[]int) Groups {
	g := make(Groups)
	for gi, members := range groups {
		for _, id := range members {
			g[id] = gi
		}
	}
	return g
}

// Blocked reports whether the partition severs i from j.
func (g Groups) Blocked(i, j int) bool {
	if g == nil {
		return false
	}
	gi, oki := g[i]
	gj, okj := g[j]
	return !oki || !okj || gi != gj
}
