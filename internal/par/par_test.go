package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// atProcs calls fn with GOMAXPROCS set to each of procs in turn, and
// restores the old value afterwards.
func atProcs(procs []int, fn func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		fn(p)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	atProcs([]int{1, 2, 8, 100}, func(procs int) {
		const n = 500
		counts := make([]atomic.Int32, n)
		For(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("GOMAXPROCS=%d: index %d ran %d times", procs, i, c)
			}
		}
	})
}

func TestForEmptyAndSingle(t *testing.T) {
	atProcs([]int{1, 8}, func(int) {
		For(0, func(int) { t.Fatal("fn called for n=0") })
		ran := false
		For(1, func(i int) {
			if i != 0 {
				t.Fatalf("i = %d", i)
			}
			ran = true
		})
		if !ran {
			t.Fatal("fn not called for n=1")
		}
	})
}

func TestForIndexedResultsDeterministic(t *testing.T) {
	// The determinism contract: indexed result slots make output independent
	// of execution order.
	const n = 200
	results := map[int][]int{}
	atProcs([]int{1, 16}, func(procs int) {
		out := make([]int, n)
		For(n, func(i int) { out[i] = i * i })
		results[procs] = out
	})
	for i := range results[1] {
		if results[1][i] != results[16][i] {
			t.Fatalf("slot %d: serial %d parallel %d", i, results[1][i], results[16][i])
		}
	}
}

func TestForPropagatesPanic(t *testing.T) {
	atProcs([]int{1, 8}, func(procs int) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("GOMAXPROCS=%d: panic not propagated", procs)
			}
			if s, ok := r.(string); !ok || s != "boom" {
				t.Fatalf("GOMAXPROCS=%d: unexpected panic value %v", procs, r)
			}
		}()
		For(100, func(i int) {
			if i == 17 {
				panic("boom")
			}
		})
	})
}
