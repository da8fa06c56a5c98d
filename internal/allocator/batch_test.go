package allocator

import (
	"errors"
	"testing"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// mkBatchView builds a deterministic visible set over a space of the
// given size with TTLs drawn from the DS4 workload distribution.
func mkBatchView(n int, size uint32, seed uint64) []SessionInfo {
	rng := stats.NewRNG(seed)
	d := mcast.DS4()
	view := make([]SessionInfo, n)
	for i := range view {
		view[i] = SessionInfo{Addr: mcast.Addr(rng.IntN(int(size))), TTL: d.Sample(rng.IntN)}
	}
	return view
}

// AllocateBatchSerial is the AllocateBatch contract spelled out: k
// sequential Allocate calls, the view extended by each freshly allocated
// session before the next. It is the oracle the batch paths are compared
// with, here and in FuzzAllocate. Allocated addresses are appended to dst;
// on failure the addresses allocated before the error are returned with it.
func AllocateBatchSerial(a Allocator, visible []SessionInfo, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	view := make([]SessionInfo, len(visible), len(visible)+k)
	copy(view, visible)
	for i := 0; i < k; i++ {
		addr, err := a.Allocate(view, ttl, rng)
		if err != nil {
			return dst, err
		}
		dst = append(dst, addr)
		view = append(view, SessionInfo{Addr: addr, TTL: ttl})
	}
	return dst, nil
}

// TestAllocateBatchMatchesSerial pins the batch contract for every
// catalog allocator: AllocateBatch must be bit-identical to k sequential
// Allocate calls with view extension (AllocateBatchSerial), address for
// address, across scopes and batch sizes.
func TestAllocateBatchMatchesSerial(t *testing.T) {
	const size = 1024
	for _, a := range Catalog(size) {
		for _, ttl := range []mcast.TTL{1, 15, 47, 63, 127, 191} {
			for _, k := range []int{1, 2, 16, 64} {
				view := mkBatchView(300, size, 42)
				serial, err1 := AllocateBatchSerial(a, view, ttl, k, nil, stats.NewRNG(7))
				batch, err2 := a.AllocateBatch(view, ttl, k, nil, stats.NewRNG(7))
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s ttl=%d k=%d: serial err=%v batch err=%v", a.Name(), ttl, k, err1, err2)
				}
				if len(serial) != len(batch) {
					t.Fatalf("%s ttl=%d k=%d: serial %d addrs, batch %d", a.Name(), ttl, k, len(serial), len(batch))
				}
				for i := range serial {
					if serial[i] != batch[i] {
						t.Fatalf("%s ttl=%d k=%d: addr %d differs: serial %d batch %d",
							a.Name(), ttl, k, i, serial[i], batch[i])
					}
				}
			}
		}
	}
}

// TestAllocateBatchDoesNotMutateView guards the interface contract: the
// caller's visible slice must come back untouched.
func TestAllocateBatchDoesNotMutateView(t *testing.T) {
	const size = 512
	for _, a := range Catalog(size) {
		view := mkBatchView(100, size, 3)
		snapshot := append([]SessionInfo(nil), view...)
		if _, err := a.AllocateBatch(view, 127, 32, nil, stats.NewRNG(1)); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		for i := range view {
			if view[i] != snapshot[i] {
				t.Fatalf("%s mutated visible[%d]: %+v -> %+v", a.Name(), i, snapshot[i], view[i])
			}
		}
	}
}

// TestAllocateBatchIntraBatchUnique: every informed allocator must never
// hand the same address out twice within one batch while free addresses
// remain — the whole point of threading the used set through the batch.
// (Pure random R is exempt: it clashes by design.)
func TestAllocateBatchIntraBatchUnique(t *testing.T) {
	const size = 4096
	for _, a := range Catalog(size) {
		if a.Name() == "R" {
			continue
		}
		view := mkBatchView(200, size, 9)
		got, err := a.AllocateBatch(view, 127, 64, nil, stats.NewRNG(5))
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		seen := map[mcast.Addr]bool{}
		for _, addr := range got {
			if seen[addr] {
				t.Fatalf("%s: address %d allocated twice in one batch", a.Name(), addr)
			}
			seen[addr] = true
		}
	}
}

// TestAllocateBatchExhaustion: when the space fills mid-batch the
// addresses allocated so far are returned with the error, matching the
// sequential stop-at-first-failure semantics.
func TestAllocateBatchExhaustion(t *testing.T) {
	const size = 16
	a := NewInformedRandom(size)
	var view []SessionInfo
	for i := 0; i < 10; i++ {
		view = append(view, SessionInfo{Addr: mcast.Addr(i), TTL: 127})
	}
	got, err := a.AllocateBatch(view, 127, 32, nil, stats.NewRNG(2))
	if !errors.Is(err, ErrSpaceFull) {
		t.Fatalf("err = %v, want ErrSpaceFull", err)
	}
	if len(got) != int(size)-len(view) {
		t.Fatalf("allocated %d before exhaustion, want %d", len(got), int(size)-len(view))
	}
}

// TestAllocateBatchAppendsToDst: dst is appended to, not clobbered.
func TestAllocateBatchAppendsToDst(t *testing.T) {
	a := NewHybrid(1024)
	dst := []mcast.Addr{99}
	got, err := a.AllocateBatch(mkBatchView(50, 1024, 1), 127, 4, dst, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != 99 {
		t.Fatalf("got %v, want sentinel 99 preserved and 4 appended", got)
	}
}

// --- Batch micro-benchmarks (mirrored into BENCH.json by mcbench) ---

func benchAllocateBatch(b *testing.B, a Allocator, k int) {
	b.Helper()
	view := mkBatchView(500, 4096, 5)
	rng := stats.NewRNG(5)
	dst := make([]mcast.Addr, 0, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = a.AllocateBatch(view, 127, k, dst[:0], rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Report per-address cost: the number the <1µs/address target is about.
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/addr")
}

func BenchmarkAllocateBatchHybrid16(b *testing.B) { benchAllocateBatch(b, NewHybrid(4096), 16) }
func BenchmarkAllocateBatchHybrid64(b *testing.B) { benchAllocateBatch(b, NewHybrid(4096), 64) }
func BenchmarkAllocateBatchAdaptive16(b *testing.B) {
	benchAllocateBatch(b, NewAdaptive(4096, AdaptiveConfig{GapFraction: 0.2}), 16)
}
func BenchmarkAllocateBatchIR16(b *testing.B) { benchAllocateBatch(b, NewInformedRandom(4096), 16) }
