package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersDefaults(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d", got)
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const n = 500
		counts := make([]atomic.Int32, n)
		For(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEmptyAndSingle(t *testing.T) {
	For(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	For(4, 1, func(i int) {
		if i != 0 {
			t.Fatalf("i = %d", i)
		}
		ran = true
	})
	if !ran {
		t.Fatal("fn not called for n=1")
	}
}

func TestForIndexedResultsDeterministic(t *testing.T) {
	// The determinism contract: indexed result slots make output independent
	// of execution order.
	const n = 200
	serial := make([]int, n)
	For(1, n, func(i int) { serial[i] = i * i })
	parallel := make([]int, n)
	For(16, n, func(i int) { parallel[i] = i * i })
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %d parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestForPropagatesPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not propagated")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	For(4, 100, func(i int) {
		if i == 17 {
			panic("boom")
		}
	})
}
