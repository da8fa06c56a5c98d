// Package des is a discrete-event network simulator that drives *real*
// session directory agents (the root sessiondir package) over a topology
// with per-link delay, TTL scoping, and the whole of internal/fault's
// packet-fault model — loss (the conditions the paper's §2.3 analysis
// reduces to the "invisible fraction" i), bursts, duplication, bit
// corruption, delay and reordering, partitions. Net is the one in-process
// faulty fabric: the resolution and discovery experiments and the chaos
// harness (internal/chaos) all run on it. It is the integration substrate:
// the same production code paths that run over UDP run here under virtual
// time, so loss/recovery behaviour (back-off schedules, third-party
// defense timing) can be measured in seconds of real time rather than
// hours.
package des

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is one scheduled callback.
type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// Engine is a single-threaded virtual-time event loop. All simulated
// components must be driven from engine callbacks (no goroutines), which
// makes runs perfectly reproducible.
type Engine struct {
	now    time.Time
	events eventHeap
	seq    uint64
}

// NewEngine starts the virtual clock at the given instant.
func NewEngine(start time.Time) *Engine {
	return &Engine{now: start}
}

// Now returns the current virtual time; pass it as a Config.Clock.
func (e *Engine) Now() time.Time { return e.now }

// Schedule runs fn at the given virtual time (clamped to now if past).
func (e *Engine) Schedule(at time.Time, fn func()) {
	if at.Before(e.now) {
		at = e.now
	}
	e.seq++
	heap.Push(&e.events, &event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn after a delay.
func (e *Engine) After(d time.Duration, fn func()) {
	e.Schedule(e.now.Add(d), fn)
}

// Every schedules fn at a fixed period until the engine stops running.
func (e *Engine) Every(period time.Duration, fn func()) {
	if period <= 0 {
		panic("des: non-positive period")
	}
	var tick func()
	tick = func() {
		fn()
		e.After(period, tick)
	}
	e.After(period, tick)
}

// RunUntil processes events in timestamp order until the virtual clock
// reaches deadline. Periodic events keep the queue non-empty, so the
// deadline — not queue exhaustion — bounds the run. It returns the number
// of events processed.
func (e *Engine) RunUntil(deadline time.Time) int {
	processed := 0
	for e.events.Len() > 0 {
		next := e.events[0]
		if next.at.After(deadline) {
			break
		}
		heap.Pop(&e.events)
		e.now = next.at
		next.fn()
		processed++
	}
	if e.now.Before(deadline) {
		e.now = deadline
	}
	return processed
}

// RunFor advances the clock by d.
func (e *Engine) RunFor(d time.Duration) int {
	return e.RunUntil(e.now.Add(d))
}

// Pending returns the number of queued events (diagnostics).
func (e *Engine) Pending() int { return e.events.Len() }

// String implements fmt.Stringer.
func (e *Engine) String() string {
	return fmt.Sprintf("des.Engine{now: %s, pending: %d}", e.now.Format(time.RFC3339), e.events.Len())
}
