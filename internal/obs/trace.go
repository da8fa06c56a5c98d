package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// TraceKind labels one structured trace event. The taxonomy follows the
// protocol's observable decisions (DESIGN.md §12): address allocations,
// the three clash-correction phases, announce/learn/expire soft-state
// transitions, and the admission layer's eviction/shed verdicts. It is
// the directory's one event vocabulary (sessiondir.EventKind aliases it).
type TraceKind uint8

const (
	// TraceAllocate: an address was allocated for an owned session.
	TraceAllocate TraceKind = iota
	// TraceAnnounce: an announcement of one of our own sessions was sent —
	// a scheduled one, a phase-1 defense or the first after a move. A
	// phase-3 defense of another site's session is TraceDefendOther.
	TraceAnnounce
	// TraceClashMove: an owned session moved address (clash phase 2).
	TraceClashMove
	// TraceDefendOwn: we re-announced to defend our own session (phase 1).
	TraceDefendOwn
	// TraceDefendOther: we defended another site's session (phase 3).
	TraceDefendOther
	// TraceLearn: a previously unknown session entered the cache.
	TraceLearn
	// TraceExpire: a cached session timed out.
	TraceExpire
	// TraceEvict: the admission layer displaced a cached session.
	TraceEvict
	// TraceShed: a newcomer was dropped because the cache was full of
	// fresh state.
	TraceShed
	// TraceDelete: we withdrew one of our sessions.
	TraceDelete
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceAllocate:
		return "allocate"
	case TraceAnnounce:
		return "announce"
	case TraceClashMove:
		return "clash-move"
	case TraceDefendOwn:
		return "defend-own"
	case TraceDefendOther:
		return "defend-other"
	case TraceLearn:
		return "learn"
	case TraceExpire:
		return "expire"
	case TraceEvict:
		return "evict"
	case TraceShed:
		return "shed"
	case TraceDelete:
		return "delete"
	default:
		return fmt.Sprintf("TraceKind(%d)", uint8(k))
	}
}

// TraceEvent is one recorded protocol event. At is virtual time in
// milliseconds since the recording component's epoch — never the wall
// clock, so a dump from a seeded run is itself reproducible.
type TraceEvent struct {
	At   float64
	Kind TraceKind
	Key  string // session key ("" when not applicable)
	Addr uint32 // address index when the event concerns one, else 0
}

// Trace is a bounded ring buffer of TraceEvents. When full, the oldest
// event is overwritten and counted as dropped; recording is a slot
// assignment under a short mutex — no allocation, no I/O, no RNG — so an
// attached tracer cannot perturb a deterministic run. A nil *Trace is a
// valid no-op recorder, which is how tracing stays opt-in without
// call-site branching.
type Trace struct {
	mu  sync.Mutex
	buf []TraceEvent
	n   uint64 // total events ever recorded
}

// NewTrace returns a tracer retaining the last capacity events.
// capacity must be positive.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		panic(fmt.Sprintf("obs: NewTrace capacity %d must be positive", capacity))
	}
	return &Trace{buf: make([]TraceEvent, capacity)}
}

// Record appends one event, overwriting the oldest when full. Safe on a
// nil receiver (no-op).
func (t *Trace) Record(e TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.n%uint64(len(t.buf))] = e
	t.n++
	t.mu.Unlock()
}

// Total returns how many events have ever been recorded.
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events have been overwritten by ring
// overflow.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n <= uint64(len(t.buf)) {
		return 0
	}
	return t.n - uint64(len(t.buf))
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	capacity := uint64(len(t.buf))
	count := t.n
	if count > capacity {
		count = capacity
	}
	out := make([]TraceEvent, 0, count)
	start := t.n - count
	for i := uint64(0); i < count; i++ {
		out = append(out, t.buf[(start+i)%capacity])
	}
	return out
}

// WriteText renders the retained events as one line each —
// "<at_ms> <kind> <key> addr=<n>" — preceded by a summary header. The
// output of two same-seed runs is byte-identical.
func (t *Trace) WriteText(w io.Writer) error {
	events := t.Events()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# trace: %d events retained, %d recorded, %d dropped\n",
		len(events), t.Total(), t.Dropped())
	for _, e := range events {
		fmt.Fprintf(bw, "%.3f %s %s addr=%d\n", e.At, e.Kind, e.Key, e.Addr)
	}
	return bw.Flush()
}
