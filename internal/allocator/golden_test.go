package allocator

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// goldenOutcome renders picked addresses and the error class as one field:
// "12,7,903" on success, "12,7 full" when ErrSpaceFull cut the run short.
func goldenOutcome(addrs []mcast.Addr, err error) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = fmt.Sprint(uint32(a))
	}
	out := strings.Join(parts, ",")
	switch {
	case err == nil:
		return out
	case errors.Is(err, ErrSpaceFull):
		return out + " full"
	default:
		return out + " error: " + err.Error()
	}
}

// goldenLines computes the table testdata/allocate_golden.txt records: for
// each catalog allocator, scope and view seed, eight sequential Allocate
// results and one AllocateBatch(16); then, per informed algorithm, a batch
// into a space with four free addresses, which must stop on ErrSpaceFull
// with the addresses picked before it.
func goldenLines() []string {
	const size = 1024
	var lines []string
	for _, a := range Catalog(size) {
		for _, ttl := range []mcast.TTL{1, 15, 47, 63, 127, 191} {
			for _, seed := range []uint64{42, 7} {
				view := mkBatchView(300, size, seed)
				serial, serr := AllocateBatchSerial(a, view, ttl, 8, nil, stats.NewRNG(seed*1000+uint64(ttl)))
				batch, berr := a.AllocateBatch(view, ttl, 16, nil, stats.NewRNG(seed*1000+uint64(ttl)))
				lines = append(lines, fmt.Sprintf("%s | ttl=%d seed=%d | allocate x8: %s | batch 16: %s",
					a.Name(), ttl, seed, goldenOutcome(serial, serr), goldenOutcome(batch, berr)))
			}
		}
	}
	const small = 64
	free := map[mcast.Addr]bool{3: true, 20: true, 40: true, 60: true}
	rng := stats.NewRNG(11)
	d := mcast.DS4()
	var crowded []SessionInfo
	for addr := mcast.Addr(0); addr < small; addr++ {
		if !free[addr] {
			crowded = append(crowded, SessionInfo{Addr: addr, TTL: d.Sample(rng.IntN)})
		}
	}
	for _, a := range Catalog(small) {
		if a.Name() == "R" {
			continue
		}
		for _, ttl := range []mcast.TTL{63, 191} {
			serial, serr := AllocateBatchSerial(a, crowded, ttl, 8, nil, stats.NewRNG(uint64(ttl)))
			batch, berr := a.AllocateBatch(crowded, ttl, 16, nil, stats.NewRNG(uint64(ttl)))
			lines = append(lines, fmt.Sprintf("%s | exhaustion ttl=%d | allocate x8: %s | batch 16: %s",
				a.Name(), ttl, goldenOutcome(serial, serr), goldenOutcome(batch, berr)))
		}
	}
	return lines
}

// TestAllocateGolden holds every catalog allocator to the addresses it
// picked before the algorithms were folded onto one core (recorded at PR
// 19's tree). TestAllocateBatchMatchesSerial compares the batch path with
// the single-address path, which are now the same loop; this compares both
// with what the per-algorithm bodies did.
func TestAllocateGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/allocate_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	got := goldenLines()
	if len(got) != len(want) {
		t.Fatalf("%d cases computed, %d recorded", len(got), len(want))
	}
	exhausted := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d moved:\n got  %s\n want %s", i, got[i], want[i])
		}
		if strings.Contains(got[i], "exhaustion") {
			if !strings.HasSuffix(got[i], " full") {
				t.Errorf("case %d: batch into a crowded space did not end on ErrSpaceFull: %s", i, got[i])
			}
			exhausted++
		}
	}
	if exhausted != 16 {
		t.Errorf("%d exhaustion cases, want 16 (eight informed algorithms, two scopes)", exhausted)
	}
}
