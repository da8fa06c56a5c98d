package transport

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// FaultTransport decorates any Transport with deterministic fault
// injection on the receive side: every message arriving from the inner
// transport draws its fate from one fault.Process — loss (independent or
// bursty), duplication, single-bit corruption, and a per-packet delay that
// reorders whenever the sampled delays are not monotone. A fleet of agents
// each wrapped in its own FaultTransport therefore sees independent
// per-receiver loss, the tail-loss regime of the paper's §2.3. Send passes
// through untouched.
//
// Every random decision is drawn from the seeded stats.RNG handed to
// NewFault, in internal/fault's one draw order, and delayed delivery is
// driven by an injected Clock plus explicit Step calls instead of
// goroutines and timers. Two runs that apply the same calls in the same
// order therefore produce bit-identical fault schedules — the detrand
// contract — and a chaos test failure replays exactly from its seed.
//
// Partitions are not modelled here: they are a property of the fabric, not
// of one endpoint, and live on Bus (see Bus.Partition / Bus.Heal).
type FaultTransport struct {
	inner Transport
	clk   Clock

	mu      sync.Mutex
	rng     *stats.RNG
	proc    fault.Process
	delayed uint64
	handler Handler
	queue   []faultEntry // in enqueue order
	closed  bool
}

// FaultConfig assembles a FaultTransport.
type FaultConfig struct {
	// Profile is the fault process applied to packets this endpoint
	// receives.
	Profile fault.Profile
	// RNG drives every fault decision. Required: ambient randomness is
	// banned in this package, so there is no fallback seed.
	RNG *stats.RNG
	// Clock stamps due times for delayed packets (nil = SystemClock; use
	// a ManualClock in tests so Step can run on virtual time).
	Clock Clock
}

// FaultStats counts the faults injected so far.
type FaultStats struct {
	fault.Stats
	// Delayed counts packets (or copies) that entered the delay queue.
	Delayed uint64
	// Pending is the number of delayed packets awaiting a Step.
	Pending int
}

// faultEntry is one delayed packet. Due times are int64 nanoseconds so
// queue scans under the mutex are pure arithmetic (the lockscope rule: no
// calls — not even time.Time methods — while a lock is held).
type faultEntry struct {
	dueNanos int64
	data     []byte
	from     netip.AddrPort
}

var _ Transport = (*FaultTransport)(nil)

// NewFault wraps inner with fault injection. It subscribes to inner, so
// wrap before handing the transport to a Directory.
func NewFault(inner Transport, cfg FaultConfig) (*FaultTransport, error) {
	if inner == nil {
		return nil, fmt.Errorf("transport: FaultTransport needs an inner transport")
	}
	if cfg.RNG == nil {
		return nil, fmt.Errorf("transport: FaultConfig.RNG is required (seeded determinism contract)")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = SystemClock{}
	}
	f := &FaultTransport{
		inner: inner,
		clk:   clk,
		rng:   cfg.RNG,
		proc:  fault.Process{Profile: cfg.Profile},
	}
	inner.Subscribe(f.onRecv)
	return f, nil
}

// SetProfile swaps the fault profile. Chaos schedules use this to turn
// faults on and off mid-run; burst-chain state and counters carry over.
func (f *FaultTransport) SetProfile(p fault.Profile) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.proc.Profile = p
}

// Send implements Transport. Outbound packets are not faulted: a packet's
// fate is decided per receiver.
func (f *FaultTransport) Send(ctx context.Context, data []byte, scope mcast.TTL) error {
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return f.inner.Send(ctx, data, scope)
}

// onRecv is the inner transport's handler: the fault path.
func (f *FaultTransport) onRecv(m Message) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		m.Release() // late arrival after Close: return the buffer, not just the message
		return
	}
	fate := f.proc.Next(f.rng, len(m.Data)) //mclint:lockscope pure RNG/state arithmetic on fields owned by mu; no I/O, callbacks, or other locks
	h := f.handler
	f.mu.Unlock()
	if fate.Drop {
		m.Release()
		return
	}
	data := m.Data
	if fate.CorruptBit >= 0 {
		data = fault.Flip(data, fate.CorruptBit)
	}
	deliver := func(d []byte, delay time.Duration) {
		if delay > 0 {
			f.enqueue(faultEntry{data: bytes.Clone(d), from: m.From}, delay)
			return
		}
		if h != nil {
			h(Message{From: m.From, Data: bytes.Clone(d)})
		}
	}
	deliver(data, fate.Delay)
	if fate.Dup {
		deliver(data, fate.DupDelay)
	}
	// Every delivery path cloned the payload (and Flip already copied), so
	// the receive buffer can go back to its pool. Releasing draws nothing
	// from the RNG: seeded replays stay bit-identical.
	m.Release()
}

// enqueue stamps a due time and queues a delayed packet.
func (f *FaultTransport) enqueue(e faultEntry, delay time.Duration) {
	dueNanos := f.clk.Now().Add(delay).UnixNano()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	e.dueNanos = dueNanos
	f.queue = append(f.queue, e)
	f.delayed++
	f.mu.Unlock()
}

// Step delivers every queued packet whose due time is at or before now, in
// (due, enqueue-order) order, and returns how many it delivered. Delivery
// runs outside the lock, so handlers may re-enter the FaultTransport (e.g.
// a directory reacting to a delayed clash report by sending a defense).
func (f *FaultTransport) Step(now time.Time) int {
	return f.deliverDue(now.UnixNano(), false)
}

// FlushDelayed delivers every queued packet regardless of due time —
// chaos schedules call it when the fault phase ends so no packet is
// stranded in a queue that will never be stepped again.
func (f *FaultTransport) FlushDelayed() int {
	return f.deliverDue(0, true)
}

func (f *FaultTransport) deliverDue(nowNanos int64, all bool) int {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0
	}
	var due []faultEntry
	rest := f.queue[:0]
	for _, e := range f.queue {
		if all || e.dueNanos <= nowNanos {
			due = append(due, e)
		} else {
			rest = append(rest, e)
		}
	}
	f.queue = rest
	h := f.handler
	f.mu.Unlock()
	// Stable: equal due times keep the queue's enqueue order.
	sort.SliceStable(due, func(i, j int) bool { return due[i].dueNanos < due[j].dueNanos })
	if h != nil {
		for _, e := range due {
			h(Message{From: e.from, Data: e.data})
		}
	}
	return len(due)
}

// Stats returns a snapshot of the fault counters.
func (f *FaultTransport) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FaultStats{Stats: f.proc.Stats, Delayed: f.delayed, Pending: len(f.queue)}
}

// Subscribe implements Transport. The handler receives ingress traffic
// after fault processing.
func (f *FaultTransport) Subscribe(h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handler = h
}

// LocalAddr implements Transport.
func (f *FaultTransport) LocalAddr() netip.AddrPort { return f.inner.LocalAddr() }

// Close implements Transport: queued packets are dropped (a crash loses
// in-flight traffic) and the inner transport is closed.
func (f *FaultTransport) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.queue = nil
	f.handler = nil
	f.mu.Unlock()
	return f.inner.Close()
}
