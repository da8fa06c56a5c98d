package allocator

import (
	"testing"
	"testing/quick"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// naiveCountUsed mirrors usedSet.countUsed bit by bit.
func naiveCountUsed(u *usedSet, start, end uint32) uint32 {
	n := uint32(0)
	for a := start; a < end; a++ {
		if u.has(mcast.Addr(a)) {
			n++
		}
	}
	return n
}

// naiveNthFree mirrors usedSet.nthFree by linear scan.
func naiveNthFree(u *usedSet, start, end, j uint32) (mcast.Addr, bool) {
	for a := start; a < end; a++ {
		if !u.has(mcast.Addr(a)) {
			if j == 0 {
				return mcast.Addr(a), true
			}
			j--
		}
	}
	return 0, false
}

func TestUsedSetCountAndSelectMatchNaive(t *testing.T) {
	err := quick.Check(func(seed uint64, sizeRaw uint16, nUsed uint8) bool {
		size := uint32(sizeRaw)%500 + 1
		rng := stats.NewRNG(seed)
		u := new(usedSet)
		u.reset(size)
		for i := 0; i < int(nUsed); i++ {
			u.add(mcast.Addr(rng.IntN(int(size))))
		}
		// Random sub-ranges, including empty and word-straddling ones.
		for trial := 0; trial < 8; trial++ {
			start := uint32(rng.IntN(int(size)))
			end := start + uint32(rng.IntN(int(size-start)+1))
			if got, want := u.countUsed(start, end), naiveCountUsed(u, start, end); got != want {
				t.Logf("countUsed(%d,%d) = %d, want %d", start, end, got, want)
				return false
			}
			free := (end - start) - u.countUsed(start, end)
			for _, j := range []uint32{0, free / 2, free} {
				gotA, gotOK := u.nthFree(start, end, j)
				wantA, wantOK := naiveNthFree(u, start, end, j)
				if gotOK != wantOK || (gotOK && gotA != wantA) {
					t.Logf("nthFree(%d,%d,%d) = %v,%v want %v,%v", start, end, j, gotA, gotOK, wantA, wantOK)
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUsedSetResetClearsReusedWords(t *testing.T) {
	u := new(usedSet)
	u.reset(200)
	u.add(3)
	u.add(130)
	u.reset(100) // smaller space reusing the same backing array
	if u.has(3) {
		t.Fatal("reset did not clear prior contents")
	}
	if got := u.countUsed(0, 100); got != 0 {
		t.Fatalf("countUsed after reset = %d", got)
	}
}

func TestAcquireUsedIgnoresOutOfRange(t *testing.T) {
	var f State
	NewInformedRandom(10).fold(&f, nil, []SessionInfo{{Addr: 3, TTL: 1}, {Addr: 500, TTL: 1}})
	if !f.used.has(3) {
		t.Fatal("in-range address not marked")
	}
	if got := f.used.countUsed(0, 10); got != 1 {
		t.Fatalf("countUsed = %d, want 1", got)
	}
}

// The allocation hot path performs no heap allocation in steady state, for
// every catalog algorithm and all three entry points: the fold is pooled,
// Allocate's one-address batch stays on its stack, and AllocateFrom adds
// its picks to the caller's State and takes them out again. (A budget of "at most
// 2" would have let a counts buffer escaping to the heap through the rule
// interface pass.)
func TestAllocateHotPathAllocationFree(t *testing.T) {
	rng := stats.NewRNG(5)
	d := mcast.DS4()
	var view []SessionInfo
	for i := 0; i < 500; i++ {
		view = append(view, SessionInfo{Addr: mcast.Addr(rng.IntN(4096)), TTL: d.Sample(rng.IntN)})
	}
	dst := make([]mcast.Addr, 0, 16)
	state := foldState(4096, view)
	for _, a := range Catalog(4096) {
		a := a
		calls := []struct {
			name string
			call func() error
		}{
			{"Allocate", func() error {
				_, err := a.Allocate(view, 127, rng)
				return err
			}},
			{"AllocateBatch into dst", func() error {
				_, err := a.AllocateBatch(view, 127, cap(dst), dst[:0], rng)
				return err
			}},
			{"AllocateFrom into dst", func() error {
				_, err := a.AllocateFrom(state, 127, cap(dst), dst[:0], rng)
				return err
			}},
		}
		for _, c := range calls {
			name, call := c.name, c.call
			// Warm the pool outside the measured window.
			if err := call(); err != nil {
				t.Fatalf("%s %s: %v", a.Name(), name, err)
			}
			avg := testing.AllocsPerRun(200, func() {
				if err := call(); err != nil {
					t.Fatalf("%s %s: %v", a.Name(), name, err)
				}
			})
			if avg != 0 {
				t.Errorf("%s %s: %.2f allocs/op, want 0", a.Name(), name, avg)
			}
		}
	}
}
