package allocator

import (
	"fmt"
	"sort"

	"sessiondir/internal/mcast"
)

// StaticPartitioned is the paper's IPR k-band algorithm (§2.1–2.2): the
// address space is split into k equal ranges, sessions are mapped to a
// range by their TTL, and allocation is informed-random within the range.
//
// The band of a TTL t is the number of separators ≤ t; with separators
// {15, 64} (IPR 3-band) TTLs 15–63 share a band, reproducing the imperfect
// partitioning of Figure 3, while {2, 16, 32, 48, 64, 128} (IPR 7-band)
// gives each of the paper's workload TTLs its own band.
type StaticPartitioned struct {
	core
	separators []mcast.TTL
}

// IPR3Separators returns the Figure-5 3-band separators (TTLs 15 and 64).
func IPR3Separators() []mcast.TTL { return []mcast.TTL{15, 64} }

// IPR7Separators returns the Figure-5 7-band separators
// (TTLs 2, 16, 32, 48, 64 and 128).
func IPR7Separators() []mcast.TTL { return []mcast.TTL{2, 16, 32, 48, 64, 128} }

// NewStaticPartitioned returns an IPR allocator with len(separators)+1
// bands over a space of the given size. Separators must be ascending.
func NewStaticPartitioned(size uint32, separators []mcast.TTL) *StaticPartitioned {
	validateSize(size)
	if len(separators) == 0 {
		panic("allocator: IPR needs at least one separator")
	}
	if !sort.SliceIsSorted(separators, func(i, j int) bool { return separators[i] < separators[j] }) {
		panic("allocator: IPR separators must be ascending")
	}
	bands := len(separators) + 1
	if uint32(bands) > size {
		panic(fmt.Sprintf("allocator: %d bands exceed space of %d", bands, size))
	}
	if bands > int(mcast.MaxTTL)+1 {
		panic(fmt.Sprintf("allocator: %d bands exceed the %d TTL values", bands, int(mcast.MaxTTL)+1))
	}
	p := &StaticPartitioned{separators: append([]mcast.TTL(nil), separators...)}
	p.core = core{name: fmt.Sprintf("IPR %d-band", bands), size: size, rule: p}
	p.tabulate(bands, p.BandOf)
	return p
}

// NumBands returns the number of TTL bands.
func (p *StaticPartitioned) NumBands() int { return len(p.separators) + 1 }

// BandOf returns the band index of a TTL: the count of separators ≤ t.
func (p *StaticPartitioned) BandOf(t mcast.TTL) int { return separatorsUpTo(p.separators, t) }

// separatorsUpTo counts the separators ≤ t.
func separatorsUpTo(separators []mcast.TTL, t mcast.TTL) int {
	b := 0
	for _, s := range separators {
		if t >= s {
			b++
		}
	}
	return b
}

// BandRange returns the address range [start, start+width) of band b.
// Bands split the space as evenly as integer division allows.
func (p *StaticPartitioned) BandRange(b int) (start, width uint32) {
	k := uint32(p.NumBands())
	start = uint32(b) * p.size / k
	end := uint32(b+1) * p.size / k
	return start, end - start
}

// band is IPR's rule: the fixed range of the scope's band, whatever the
// view holds.
func (p *StaticPartitioned) band(_ []int, cls int) (start, width uint32) { return p.BandRange(cls) }
