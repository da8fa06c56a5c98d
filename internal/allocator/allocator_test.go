package allocator

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

func TestRandomInRange(t *testing.T) {
	a := NewRandom(100)
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		addr, err := a.Allocate(nil, 63, rng)
		if err != nil {
			t.Fatal(err)
		}
		if uint32(addr) >= 100 {
			t.Fatalf("address %d out of range", addr)
		}
	}
	if a.Name() != "R" || a.Size() != 100 {
		t.Fatal("metadata wrong")
	}
}

func TestInformedRandomAvoidsVisible(t *testing.T) {
	a := NewInformedRandom(10)
	rng := stats.NewRNG(2)
	visible := make([]SessionInfo, 0, 9)
	for i := 0; i < 9; i++ {
		visible = append(visible, SessionInfo{Addr: mcast.Addr(i), TTL: 63})
	}
	// Only address 9 is free; IR must find it every time.
	for trial := 0; trial < 50; trial++ {
		addr, err := a.Allocate(visible, 63, rng)
		if err != nil {
			t.Fatal(err)
		}
		if addr != 9 {
			t.Fatalf("IR picked used address %d", addr)
		}
	}
}

func TestInformedRandomSpaceFull(t *testing.T) {
	a := NewInformedRandom(4)
	visible := []SessionInfo{{0, 1}, {1, 1}, {2, 1}, {3, 1}}
	if _, err := a.Allocate(visible, 1, stats.NewRNG(3)); !errors.Is(err, ErrSpaceFull) {
		t.Fatalf("err = %v, want ErrSpaceFull", err)
	}
}

func TestStaticPartitionedBandOf(t *testing.T) {
	p3 := NewStaticPartitioned(300, IPR3Separators())
	cases3 := map[mcast.TTL]int{1: 0, 14: 0, 15: 1, 31: 1, 47: 1, 63: 1, 64: 2, 127: 2, 191: 2}
	for ttl, want := range cases3 {
		if got := p3.BandOf(ttl); got != want {
			t.Errorf("IPR3 band(%d) = %d want %d", ttl, got, want)
		}
	}
	p7 := NewStaticPartitioned(700, IPR7Separators())
	// Each workload TTL in its own band (perfect partitioning).
	seen := map[int]mcast.TTL{}
	for _, ttl := range []mcast.TTL{1, 15, 31, 47, 63, 127, 191} {
		b := p7.BandOf(ttl)
		if prev, dup := seen[b]; dup {
			t.Errorf("TTLs %d and %d share IPR7 band %d", prev, ttl, b)
		}
		seen[b] = ttl
	}
	if p7.NumBands() != 7 || p3.NumBands() != 3 {
		t.Fatal("band counts wrong")
	}
}

func TestStaticPartitionedBandRangesTile(t *testing.T) {
	p := NewStaticPartitioned(1000, IPR7Separators())
	var covered uint32
	prevEnd := uint32(0)
	for b := 0; b < p.NumBands(); b++ {
		start, width := p.BandRange(b)
		if start != prevEnd {
			t.Fatalf("band %d starts at %d, want %d", b, start, prevEnd)
		}
		covered += width
		prevEnd = start + width
	}
	if covered != 1000 || prevEnd != 1000 {
		t.Fatalf("bands cover %d/%d", covered, 1000)
	}
}

func TestStaticPartitionedAllocatesInBand(t *testing.T) {
	p := NewStaticPartitioned(700, IPR7Separators())
	rng := stats.NewRNG(4)
	for _, ttl := range []mcast.TTL{1, 15, 31, 47, 63, 127, 191} {
		start, width := p.BandRange(p.BandOf(ttl))
		for i := 0; i < 50; i++ {
			addr, err := p.Allocate(nil, ttl, rng)
			if err != nil {
				t.Fatal(err)
			}
			if uint32(addr) < start || uint32(addr) >= start+width {
				t.Fatalf("TTL %d: address %d outside band [%d,%d)", ttl, addr, start, start+width)
			}
		}
	}
}

func TestStaticPartitionedBandFull(t *testing.T) {
	p := NewStaticPartitioned(21, IPR3Separators()) // 3 bands of 7
	var visible []SessionInfo
	start, width := p.BandRange(p.BandOf(191))
	for off := uint32(0); off < width; off++ {
		visible = append(visible, SessionInfo{Addr: mcast.Addr(start + off), TTL: 191})
	}
	if _, err := p.Allocate(visible, 191, stats.NewRNG(5)); !errors.Is(err, ErrSpaceFull) {
		t.Fatalf("err = %v", err)
	}
	// Other bands still work.
	if _, err := p.Allocate(visible, 1, stats.NewRNG(5)); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionMapProperties(t *testing.T) {
	pm := NewPartitionMap(2)
	if pm.NumClasses() != 55 {
		t.Fatalf("classes = %d, paper says 55", pm.NumClasses())
	}
	// Classes ascend with TTL and tile 0..255.
	prev := -1
	for ttl := 0; ttl <= 255; ttl++ {
		c := pm.ClassOf(mcast.TTL(ttl))
		if c < prev || c > prev+1 {
			t.Fatalf("class jumped from %d to %d at TTL %d", prev, c, ttl)
		}
		prev = c
		if mcast.TTL(ttl) < pm.LowTTL(c) || mcast.TTL(ttl) > pm.HighTTL(c) {
			t.Fatalf("TTL %d outside its class [%d,%d]", ttl, pm.LowTTL(c), pm.HighTTL(c))
		}
	}
	if prev != pm.NumClasses()-1 {
		t.Fatalf("last class %d != %d", prev, pm.NumClasses()-1)
	}
	// Workload TTLs all land in distinct classes (the DAIPR premise).
	seen := map[int]bool{}
	for _, ttl := range []mcast.TTL{1, 15, 31, 47, 63, 127, 191} {
		c := pm.ClassOf(ttl)
		if seen[c] {
			t.Fatalf("workload TTLs share class %d", c)
		}
		seen[c] = true
	}
}

func TestAdaptiveLayoutInvariants(t *testing.T) {
	a := NewAdaptive(1000, AdaptiveConfig{GapFraction: 0.2})
	rng := stats.NewRNG(6)
	var visible []SessionInfo
	d := mcast.DS4()
	for i := 0; i < 300; i++ {
		ttl := d.Sample(rng.IntN)
		addr, err := a.Allocate(visible, ttl, rng)
		if err != nil {
			t.Fatalf("allocation %d failed: %v", i, err)
		}
		if uint32(addr) >= 1000 {
			t.Fatalf("address %d out of space", addr)
		}
		// Informed: never pick a visible address.
		for _, s := range visible {
			if s.Addr == addr {
				t.Fatalf("allocation %d picked visible address %d", i, addr)
			}
		}
		visible = append(visible, SessionInfo{Addr: addr, TTL: ttl})
	}
	checkLayoutInvariants(t, a.Layout(visible), 1000)
}

func checkLayoutInvariants(t *testing.T, bands []Band, size uint32) {
	t.Helper()
	// Bands are in descending TTL order, and where space permits, a
	// higher-TTL band sits entirely above lower-TTL bands (no overlap
	// unless pinned at zero).
	for i := 1; i < len(bands); i++ {
		hi, lo := bands[i-1], bands[i]
		if hi.Low <= lo.Low {
			t.Fatalf("band order wrong: %v before %v", hi, lo)
		}
		if lo.Start > 0 && lo.Start+lo.Width > hi.Start {
			t.Fatalf("unpinned bands overlap: %+v then %+v", hi, lo)
		}
	}
	for _, b := range bands {
		if b.Start+b.Width > size {
			t.Fatalf("band exceeds space: %+v", b)
		}
		if b.Width < 1 {
			t.Fatalf("band has zero width: %+v", b)
		}
	}
}

// TestAdaptiveDeterminism is the DAIPR core property: two sites whose views
// agree on all sessions with TTL >= x compute the same placement for the
// band of TTL x, even if they disagree below x.
func TestAdaptiveDeterminism(t *testing.T) {
	a := NewAdaptive(2000, AdaptiveConfig{GapFraction: 0.2})
	rng := stats.NewRNG(7)
	var shared, localA, localB []SessionInfo
	d := mcast.DS4()
	for i := 0; i < 200; i++ {
		ttl := d.Sample(rng.IntN)
		s := SessionInfo{Addr: mcast.Addr(rng.IntN(2000)), TTL: ttl}
		if ttl >= 63 {
			shared = append(shared, s)
		} else if rng.Bool(0.5) {
			localA = append(localA, s)
		} else {
			localB = append(localB, s)
		}
	}
	viewA := append(append([]SessionInfo{}, shared...), localA...)
	viewB := append(append([]SessionInfo{}, shared...), localB...)
	layoutA := a.Layout(viewA)
	layoutB := a.Layout(viewB)
	pm := a.PartitionMap()
	cls63 := pm.ClassOf(63)
	for i := range layoutA {
		if layoutA[i].Class < cls63 {
			continue
		}
		if layoutA[i] != layoutB[i] {
			t.Fatalf("band %d differs between sites that agree above TTL 63:\n%+v\n%+v",
				layoutA[i].Class, layoutA[i], layoutB[i])
		}
	}
}

func TestAdaptiveBandsGrowWithLoad(t *testing.T) {
	a := NewAdaptive(1000, AdaptiveConfig{GapFraction: 0.2})
	pm := a.PartitionMap()
	cls := pm.ClassOf(127)
	widthOf := func(visible []SessionInfo) uint32 {
		for _, b := range a.Layout(visible) {
			if b.Class == cls {
				return b.Width
			}
		}
		t.Fatal("band missing")
		return 0
	}
	if w := widthOf(nil); w != 1 {
		t.Fatalf("empty band width %d, want 1 (paper: single initial address)", w)
	}
	var visible []SessionInfo
	for i := 0; i < 100; i++ {
		visible = append(visible, SessionInfo{Addr: mcast.Addr(i), TTL: 127})
	}
	w := widthOf(visible)
	// 100 sessions at 67% occupancy → width ≈ 150.
	if w < 140 || w > 160 {
		t.Fatalf("loaded band width %d, want ≈150", w)
	}
}

func TestAdaptiveGapFractionReservesSpace(t *testing.T) {
	// With a 60% gap fraction and two busy bands, the gap between them
	// must be larger than with 20%.
	gapBetween := func(frac float64) int64 {
		a := NewAdaptive(1000, AdaptiveConfig{GapFraction: frac})
		var visible []SessionInfo
		for i := 0; i < 30; i++ {
			visible = append(visible, SessionInfo{Addr: mcast.Addr(i), TTL: 191})
			visible = append(visible, SessionInfo{Addr: mcast.Addr(100 + i), TTL: 127})
		}
		bands := a.Layout(visible)
		pm := a.PartitionMap()
		var top, below Band
		for _, b := range bands {
			if b.Class == pm.ClassOf(191) {
				top = b
			}
			if b.Class == pm.ClassOf(127) {
				below = b
			}
		}
		return int64(top.Start) - int64(below.Start+below.Width)
	}
	if g20, g60 := gapBetween(0.2), gapBetween(0.6); g60 <= g20 {
		t.Fatalf("gap with 60%% budget (%d) not larger than with 20%% (%d)", g60, g20)
	}
}

func TestAdaptiveExpandsIntoGapWhenBandFull(t *testing.T) {
	a := NewAdaptive(200, AdaptiveConfig{GapFraction: 0.3})
	rng := stats.NewRNG(8)
	// Fill the visible world so the top band and more are occupied, then
	// ensure allocation still succeeds by expansion (flash crowd).
	var visible []SessionInfo
	for i := 0; i < 60; i++ {
		addr, err := a.Allocate(visible, 191, rng)
		if err != nil {
			t.Fatalf("allocation %d: %v", i, err)
		}
		visible = append(visible, SessionInfo{Addr: addr, TTL: 191})
	}
}

// AdaptiveConfig resolution rejects a gap or occupancy it cannot lay out
// (a negative occupancy once laid a band out past the end of the space).
func TestAdaptiveConfigValidation(t *testing.T) {
	constructors := map[string]func(AdaptiveConfig){
		"NewAdaptive": func(cfg AdaptiveConfig) { NewAdaptive(100, cfg) },
	}
	for name, construct := range constructors {
		for _, bad := range []AdaptiveConfig{
			{GapFraction: -0.1},
			{GapFraction: 1.0},
			{GapFraction: math.NaN()},
			{GapFraction: 0.2, TargetOccupancy: 1.5},
			{GapFraction: 0.2, TargetOccupancy: -0.5},
			{GapFraction: 0.2, TargetOccupancy: math.NaN()},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: config %+v did not panic", name, bad)
					}
				}()
				construct(bad)
			}()
		}
		construct(AdaptiveConfig{GapFraction: 0.2, TargetOccupancy: 1}) // the bounds' inclusive end
		construct(AdaptiveConfig{})
	}
}

func TestHybridLayoutInvariants(t *testing.T) {
	h := NewHybrid(1000)
	bands := h.Layout(nil)
	if len(bands) != 7 {
		t.Fatalf("bands = %d", len(bands))
	}
	// Initial layout occupies the top half of the space.
	lowest := bands[len(bands)-1]
	if lowest.Start < 1000/2-100 {
		t.Fatalf("initial bands reach down to %d; should stay near top half", lowest.Start)
	}
	// Highest band at the very top.
	if top := bands[0]; top.Start+top.Width != 1000 {
		t.Fatalf("top band ends at %d", top.Start+top.Width)
	}
	// Bands ordered top-down without overlap.
	for i := 1; i < len(bands); i++ {
		if bands[i].Start+bands[i].Width > bands[i-1].Start {
			t.Fatalf("hybrid bands overlap: %+v then %+v", bands[i-1], bands[i])
		}
	}
}

func TestHybridPushAndShrink(t *testing.T) {
	h := NewHybrid(1000)
	// Load the top band heavily: it must expand and push the band below
	// downward from its initial position.
	var visible []SessionInfo
	for i := 0; i < 300; i++ {
		visible = append(visible, SessionInfo{Addr: mcast.Addr(i), TTL: 191})
	}
	bands := h.Layout(visible)
	if bands[0].Width < 300 {
		t.Fatalf("loaded top band width %d < 300", bands[0].Width)
	}
	empty := h.Layout(nil)
	if bands[1].Start+bands[1].Width >= empty[1].Start+empty[1].Width {
		t.Fatalf("band below not pushed: top %d vs initial %d",
			bands[1].Start+bands[1].Width, empty[1].Start+empty[1].Width)
	}
	// The pushed, nearly-empty band shrinks below its initial width.
	if bands[1].Width >= empty[1].Width {
		t.Fatalf("pushed empty band did not shrink: %d vs %d", bands[1].Width, empty[1].Width)
	}
}

func TestHybridAllocates(t *testing.T) {
	h := NewHybrid(500)
	rng := stats.NewRNG(9)
	var visible []SessionInfo
	d := mcast.DS4()
	for i := 0; i < 150; i++ {
		ttl := d.Sample(rng.IntN)
		addr, err := h.Allocate(visible, ttl, rng)
		if err != nil {
			t.Fatalf("allocation %d (ttl %d): %v", i, ttl, err)
		}
		for _, s := range visible {
			if s.Addr == addr {
				t.Fatalf("hybrid picked visible address %d", addr)
			}
		}
		visible = append(visible, SessionInfo{Addr: addr, TTL: ttl})
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	cat := Catalog(1000)
	if len(cat) != 9 {
		t.Fatalf("catalog size %d", len(cat))
	}
	seen := map[string]bool{}
	for _, a := range cat {
		if seen[a.Name()] {
			t.Fatalf("duplicate name %q", a.Name())
		}
		seen[a.Name()] = true
		if a.Size() != 1000 {
			t.Fatalf("%s size %d", a.Name(), a.Size())
		}
	}
	// Every name resolves to the algorithm that prints it: the experiment
	// drivers' menus (Figures 5, 12, 13 and the occupancy sweep, all nine
	// between them) are lists of these names.
	for _, a := range cat {
		got, err := ByName(100, a.Name())
		if err != nil {
			t.Fatal(err)
		}
		if got.Name() != a.Name() || got.Size() != 100 {
			t.Fatalf("ByName(100, %q) = %s over %d addresses", a.Name(), got.Name(), got.Size())
		}
	}
	if _, err := ByName(100, "bogus"); err == nil {
		t.Fatal("expected error")
	}
}

// Property: every allocator returns in-range addresses and, for informed
// allocators, never an address it can see in use (when free space exists).
func TestAllocatorsPropertyInRangeAndInformed(t *testing.T) {
	const size = 256
	err := quick.Check(func(seed uint64, nSessions uint8, ttlIdx uint8) bool {
		rng := stats.NewRNG(seed)
		d := mcast.DS4()
		var visible []SessionInfo
		for i := 0; i < int(nSessions)%100; i++ {
			visible = append(visible, SessionInfo{
				Addr: mcast.Addr(rng.IntN(size)),
				TTL:  d.Sample(rng.IntN),
			})
		}
		ttl := d.Values[int(ttlIdx)%len(d.Values)]
		for _, a := range Catalog(size) {
			addr, err := a.Allocate(visible, ttl, rng)
			if err != nil {
				continue // a full band is legitimate
			}
			if uint32(addr) >= size {
				return false
			}
			if a.Name() == "R" {
				continue // R is deliberately uninformed
			}
			for _, s := range visible {
				if s.Addr == addr {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}
