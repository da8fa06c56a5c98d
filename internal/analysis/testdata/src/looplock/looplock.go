// Package looplock is a fixture for the looplock analyzer: no
// per-iteration mutex acquisition inside loop bodies. Hoist the lock,
// snapshot the data, or load through an atomic instead.
package looplock

import "sync"

type feed struct {
	mu      sync.Mutex
	rw      sync.RWMutex
	handler func([]byte)
	queue   [][]byte
}

func (f *feed) lockPerDatagram(pkts [][]byte) {
	for _, p := range pkts {
		f.mu.Lock() // want `f\.mu\.Lock acquired inside a loop body`
		h := f.handler
		f.mu.Unlock()
		h(p)
	}
}

func (f *feed) rlockInForBody(pkts [][]byte) {
	for i := 0; i < len(pkts); i++ {
		f.rw.RLock() // want `f\.rw\.RLock acquired inside a loop body`
		h := f.handler
		f.rw.RUnlock()
		h(pkts[i])
	}
}

func (f *feed) lockInCondition() {
	for f.tryAdvance() {
	}
}

// tryAdvance locks outside any loop — the call site's loop does not
// taint the callee.
func (f *feed) tryAdvance() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue) == 0 {
		return false
	}
	f.queue = f.queue[1:]
	return true
}

func (f *feed) hoistedLock(pkts [][]byte) {
	f.mu.Lock()
	h := f.handler
	f.mu.Unlock()
	for _, p := range pkts {
		h(p)
	}
}

// callbackInLoop defines a closure per iteration; the closure runs
// later, so its lock is not a per-iteration acquisition of this loop.
func (f *feed) callbackInLoop(reg func(func() int)) {
	for i := 0; i < 3; i++ {
		reg(func() int {
			f.mu.Lock()
			defer f.mu.Unlock()
			return len(f.queue)
		})
	}
}

// loopInsideClosure: the closure body has its own loop, and locking per
// iteration there is still a finding.
func (f *feed) loopInsideClosure(pkts [][]byte) func() {
	return func() {
		for range pkts {
			f.mu.Lock() // want `f\.mu\.Lock acquired inside a loop body`
			f.mu.Unlock()
		}
	}
}

// drainUntilQuiescent re-takes the lock each round on purpose so
// producers can interleave — the waivable shape.
func (f *feed) drainUntilQuiescent(send func([]byte)) {
	for {
		f.mu.Lock() //mclint:looplock producers must interleave between rounds
		if len(f.queue) == 0 {
			f.mu.Unlock()
			return
		}
		q := f.queue
		f.queue = nil
		f.mu.Unlock()
		for _, p := range q {
			send(p)
		}
	}
}
