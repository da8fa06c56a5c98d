package fault

import (
	"bytes"
	"math"
	"testing"
	"time"

	"sessiondir/internal/stats"
)

func TestValidate(t *testing.T) {
	good := []Profile{
		{},
		{Loss: 1, Duplicate: 0, Corrupt: 1e-3},
		{DelayMin: time.Second, DelayMax: time.Second},
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", p, err)
		}
	}
	bad := []Profile{
		{Loss: -0.1},
		{Duplicate: 1.1},
		{Corrupt: math.NaN()},
		{Loss: math.Inf(1)},
		{DelayMin: -time.Millisecond},
		{DelayMin: 10 * time.Millisecond, DelayMax: 5 * time.Millisecond},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", p)
		}
	}
}

// TestNextDrawAccounting pins how many values each kind of fate takes
// from the stream: after Next, a twin RNG advanced by that many draws is
// in the same state. This is the draw order, stated as numbers.
func TestNextDrawAccounting(t *testing.T) {
	full := Profile{Loss: 0.5, Duplicate: 0.5, Corrupt: 0.5, DelayMax: time.Second}
	// Seeds are searched for, not assumed: the first one whose first fate
	// has the wanted shape.
	seedWhere := func(p Profile, want func(Fate) bool) uint64 {
		for seed := uint64(1); seed < 1000; seed++ {
			proc := Process{Profile: p}
			if want(proc.Next(stats.NewRNG(seed), 64)) {
				return seed
			}
		}
		t.Fatal("no seed under 1000 produces the wanted fate")
		return 0
	}
	cases := []struct {
		name  string
		p     Profile
		seed  uint64
		draws int
	}{
		{"zero profile", Profile{}, 1, 0},
		{"certain fates draw nothing but the bit", Profile{Loss: 0, Duplicate: 1, Corrupt: 1}, 1, 1},
		{"loss only", Profile{Loss: 0.5}, 1, 1},
		{"loss that drops stops the draws", full, seedWhere(full, func(f Fate) bool { return f.Drop }), 1},
		{"delivered clean: loss, dup, corrupt, delay", full,
			seedWhere(full, func(f Fate) bool { return !f.Drop && !f.Dup && f.CorruptBit < 0 }), 4},
		{"delivered corrupted: + bit", full,
			seedWhere(full, func(f Fate) bool { return !f.Drop && !f.Dup && f.CorruptBit >= 0 }), 5},
		{"delivered duplicated and corrupted: + bit + dup delay", full,
			seedWhere(full, func(f Fate) bool { return f.Dup && f.CorruptBit >= 0 }), 6},
	}
	for _, c := range cases {
		rng, twin := stats.NewRNG(c.seed), stats.NewRNG(c.seed)
		proc := Process{Profile: c.p}
		proc.Next(rng, 64)
		for i := 0; i < c.draws; i++ {
			twin.Uint64()
		}
		if rng.Uint64() != twin.Uint64() {
			t.Errorf("%s: Next did not take exactly %d draws", c.name, c.draws)
		}
	}
}

func TestNextCountsAndEmptyPayload(t *testing.T) {
	proc := Process{Profile: Profile{Duplicate: 1, Corrupt: 1}}
	rng := stats.NewRNG(5)
	if f := proc.Next(rng, 0); f.CorruptBit != -1 || !f.Dup {
		t.Fatalf("empty payload: %+v (nothing to flip, still duplicated)", f)
	}
	for i := 0; i < 9; i++ {
		if f := proc.Next(rng, 4); f.CorruptBit < 0 || f.CorruptBit >= 32 {
			t.Fatalf("corrupt bit %d outside a 4-byte payload", f.CorruptBit)
		}
	}
	if want := (Stats{Packets: 10, Duplicated: 10, Corrupted: 9}); proc.Stats != want {
		t.Fatalf("stats %+v, want %+v", proc.Stats, want)
	}
	proc.Profile = Profile{Loss: 1}
	if f := proc.Next(rng, 4); !f.Drop {
		t.Fatalf("loss=1: %+v", f)
	}
	if proc.Packets != 11 || proc.Dropped != 1 {
		t.Fatalf("counters did not carry over a profile swap: %+v", proc.Stats)
	}
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	pattern := func(seed uint64) []bool {
		proc := Process{Profile: Profile{Loss: 0.5}}
		rng := stats.NewRNG(seed)
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, proc.Next(rng, 4).Drop)
		}
		return out
	}
	a, b, c := pattern(7), pattern(7), pattern(8)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at packet %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-packet patterns")
	}
}

func TestFlipCopiesAndFlipsOneBit(t *testing.T) {
	orig := []byte{0x00, 0xff, 0x0f}
	got := Flip(orig, 9) // byte 1, bit 1
	if !bytes.Equal(got, []byte{0x00, 0xfd, 0x0f}) {
		t.Fatalf("Flip = %x", got)
	}
	if !bytes.Equal(orig, []byte{0x00, 0xff, 0x0f}) {
		t.Fatal("Flip mutated its input")
	}
}

func TestLinkRNGIsPairUnique(t *testing.T) {
	first := func(seed uint64, i, j int) uint64 { return LinkRNG(seed, i, j).Uint64() }
	if first(9, 0, 1) != first(9, 0, 1) {
		t.Fatal("same (seed, i, j) gave two streams")
	}
	seen := map[uint64][2]int{}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			v := first(9, i, j)
			if prev, dup := seen[v]; dup {
				t.Fatalf("links %v and %v share a stream", prev, [2]int{i, j})
			}
			seen[v] = [2]int{i, j}
		}
	}
	if first(9, 0, 1) == first(10, 0, 1) {
		t.Fatal("stream does not depend on the seed")
	}
}

func TestGroups(t *testing.T) {
	var healed Groups
	if healed.Blocked(0, 1) {
		t.Fatal("nil Groups must connect everyone")
	}
	g := Partition([]int{0, 1}, []int{2})
	for _, c := range []struct {
		i, j    int
		blocked bool
	}{
		{0, 1, false}, {1, 0, false}, // same group
		{0, 2, true}, {2, 0, true}, // across groups
		{0, 3, true}, {3, 0, true}, {3, 3, true}, // 3 is named nowhere: severed both ways
	} {
		if got := g.Blocked(c.i, c.j); got != c.blocked {
			t.Errorf("Blocked(%d, %d) = %v, want %v", c.i, c.j, got, c.blocked)
		}
	}
	if !Partition().Blocked(0, 1) {
		t.Fatal("Partition() with no groups must sever everyone")
	}
}
