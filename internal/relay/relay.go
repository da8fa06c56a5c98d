// Package relay is a deterministic UDP fault relay: real daemon
// processes exchange datagrams through it over real sockets, and every
// directed link between two attached endpoints carries its own seeded
// fault process — loss, duplication, single-bit corruption, and uniform
// delay (which yields reordering whenever the sampled delays are not
// monotone) — plus runtime-controllable partitions.
//
// The relay is the process-level counterpart of des.Net (DESIGN.md §10):
// des.Net injects faults between simulated endpoints on virtual time; the
// relay injects the same fates — drawn by the same fault.Process.Next, in
// the same order — between *processes* on wall time. Its determinism model is necessarily weaker and is stated
// precisely here:
//
//   - Each directed link (i→j) owns the stream fault.LinkRNG(seed, i, j),
//     a function of the relay seed and the pair alone — not of attachment
//     order or any global draw sequence. The fate of the k-th packet to
//     traverse link (i→j) is therefore a function of (seed, i, j), the
//     link's profile history and the lengths of packets 0..k, and the
//     same fates come out of fault.Process.Next run in-process.
//   - Each attachment's ingress socket is read by one goroutine, and a
//     single sender's datagrams arrive on it in send order on loopback,
//     so per-link packet sequences — and hence per-link fault schedules —
//     replay across runs even though cross-link interleaving does not.
//   - Partitions consume no randomness, so flipping a partition on and
//     off never shifts any link's draw sequence.
//
// Process-level chaos verdicts (cmd/mcchaos) build on exactly this: the
// scripted schedule and the final invariants are seed-reproducible even
// though individual packet timings are not.
package relay

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/stats"
)

// maxDatagram matches the transport layer's default datagram cap.
const maxDatagram = 64 * 1024

// Config assembles a Relay.
type Config struct {
	// Seed derives every link's RNG stream. Required non-zero so a run
	// can always name the seed it replays from.
	Seed uint64
}

// Stats is a snapshot of the relay's aggregate forwarding decisions.
type Stats struct {
	Forwarded      uint64 // copies handed to the egress socket (duplicates included)
	Dropped        uint64 // packets dropped by a link's loss draw
	Duplicated     uint64 // extra copies created by duplication draws
	Corrupted      uint64 // forwarded copies with one bit flipped
	Delayed        uint64 // copies that sat in the delay queue
	PartitionDrops uint64 // packets severed by an active partition
	Pending        int    // delayed copies not yet delivered
}

// link is one directed (from, to) fault process and the stream it draws
// from.
type link struct {
	fault.Process
	rng *stats.RNG
}

// attachment is one relayed endpoint: daemons send to in's address, and
// deliveries destined for the endpoint go to dest.
type attachment struct {
	index int
	in    *net.UDPConn
	dest  netip.AddrPort
}

// delivery is one decided forwarding: data is an owned copy when the
// packet was corrupted or either copy is delayed; clean inline sends
// borrow the read buffer (consumed before forward returns).
type delivery struct {
	data  []byte
	to    netip.AddrPort
	delay time.Duration
}

// Relay forwards datagrams between attached endpoints through per-link
// fault processes. Safe for concurrent use; the fault decision phase for
// one ingress datagram runs under one lock so each link's draw order is
// well defined.
type Relay struct {
	cfg    Config
	egress *net.UDPConn

	mu     sync.Mutex
	atts   []*attachment
	links  map[[2]int]*link
	groups fault.Groups // by attachment index; nil = healed
	closed bool

	forwarded      atomic.Uint64
	dropped        atomic.Uint64
	duplicated     atomic.Uint64
	corrupted      atomic.Uint64
	delayed        atomic.Uint64
	partitionDrops atomic.Uint64
	pending        atomic.Int64

	// timers holds the pending delayed deliveries so Close can cancel
	// them instead of waiting out their delays. Fired or cancelled slots
	// are nilled and reused, so the slice length is bounded by the peak
	// number of concurrently pending deliveries.
	timers []*time.Timer

	wg sync.WaitGroup
}

// New opens a relay. Attach endpoints, then point each daemon's peer
// list at its returned ingress address.
func New(cfg Config) (*Relay, error) {
	if cfg.Seed == 0 {
		return nil, fmt.Errorf("relay: Seed is required (runs must be replayable by seed)")
	}
	egress, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("relay: egress socket: %w", err)
	}
	return &Relay{
		cfg:    cfg,
		egress: egress,
		links:  make(map[[2]int]*link),
	}, nil
}

// Attach binds a fresh ingress socket for one endpoint whose deliveries
// go to dest, returning the ingress address the endpoint must send to.
// Attachment indices are assigned in call order, starting at 0.
func (r *Relay) Attach(dest netip.AddrPort) (netip.AddrPort, int, error) {
	in, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return netip.AddrPort{}, 0, fmt.Errorf("relay: ingress socket: %w", err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = in.Close() // relay gone; nothing to undo
		return netip.AddrPort{}, 0, fmt.Errorf("relay: closed")
	}
	// An endpoint attached mid-partition is in no group, hence severed
	// until the next Partition or Heal — matching Bus semantics.
	a := &attachment{index: len(r.atts), in: in, dest: dest}
	r.atts = append(r.atts, a)
	r.mu.Unlock()
	r.wg.Add(1)
	go r.readLoop(a)
	addr := in.LocalAddr().(*net.UDPAddr).AddrPort()
	return addr, a.index, nil
}

// linkFor returns (creating on first use) the directed link i→j. Caller
// holds r.mu.
func (r *Relay) linkFor(i, j int) *link {
	k := [2]int{i, j}
	l, ok := r.links[k]
	if !ok {
		l = &link{rng: fault.LinkRNG(r.cfg.Seed, i, j)}
		r.links[k] = l
	}
	return l
}

// SetLink installs profile on the directed link from→to; -1 for either
// side is a wildcard over all current attachments. Future attachments
// start with clean links regardless of past wildcards.
func (r *Relay) SetLink(from, to int, p fault.Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.atts)
	for i := 0; i < n; i++ {
		if from >= 0 && i != from {
			continue
		}
		for j := 0; j < n; j++ {
			if j == i || (to >= 0 && j != to) {
				continue
			}
			r.linkFor(i, j).Profile = p
		}
	}
}

// Partition splits the fabric into the given groups of attachment
// indices; endpoints in no group are severed from everyone. Packets
// whose endpoints share a group still flow (with their link faults).
func (r *Relay) Partition(groups ...[]int) {
	part := fault.Partition(groups...)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups = part
}

// Heal removes any active partition.
func (r *Relay) Heal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.groups = nil
}

// SeveredLinks counts the directed attachment pairs the active partition
// currently blocks (0 when healed).
func (r *Relay) SeveredLinks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.atts {
		for j := range r.atts {
			if i != j && r.groups.Blocked(i, j) {
				n++
			}
		}
	}
	return n
}

// Stats returns a snapshot of aggregate forwarding decisions.
func (r *Relay) Stats() Stats {
	return Stats{
		Forwarded:      r.forwarded.Load(),
		Dropped:        r.dropped.Load(),
		Duplicated:     r.duplicated.Load(),
		Corrupted:      r.corrupted.Load(),
		Delayed:        r.delayed.Load(),
		PartitionDrops: r.partitionDrops.Load(),
		Pending:        int(r.pending.Load()),
	}
}

// readLoop drains one attachment's ingress socket, deciding and
// dispatching the fan-out for each datagram.
func (r *Relay) readLoop(a *attachment) {
	defer r.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, _, err := a.in.ReadFromUDP(buf)
		if err != nil {
			return // closed (or unrecoverable): the relay is shutting down
		}
		r.forward(a.index, buf[:n])
	}
}

// forward runs the decision phase for one ingress datagram under the
// lock — so each link's packet sequence, and with it its draw order, is
// well defined — then performs inline sends and schedules delayed ones
// outside it.
func (r *Relay) forward(from int, data []byte) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	var out []delivery
	for j := 0; j < len(r.atts); j++ {
		if j == from {
			continue
		}
		if r.groups.Blocked(from, j) {
			r.partitionDrops.Add(1)
			continue
		}
		l := r.linkFor(from, j)
		fate := l.Next(l.rng, len(data))
		if fate.Drop {
			r.dropped.Add(1)
			continue
		}
		// Both copies of a duplicated packet share one payload: nothing
		// writes to it after this point.
		payload := data
		switch {
		case fate.CorruptBit >= 0:
			payload = fault.Flip(data, fate.CorruptBit)
		case fate.Delay > 0 || fate.DupDelay > 0:
			payload = append([]byte(nil), data...)
		}
		dest := r.atts[j].dest
		out = append(out, delivery{data: payload, to: dest, delay: fate.Delay})
		copies := uint64(1)
		if fate.Dup {
			r.duplicated.Add(1)
			out = append(out, delivery{data: payload, to: dest, delay: fate.DupDelay})
			copies = 2
		}
		if fate.CorruptBit >= 0 {
			r.corrupted.Add(copies) // the counter is in forwarded copies
		}
	}
	r.mu.Unlock()
	for _, d := range out {
		r.dispatch(d)
	}
}

// dispatch sends one decided delivery, inline or after its delay.
func (r *Relay) dispatch(d delivery) {
	if d.delay <= 0 {
		r.send(d.data, d.to)
		return
	}
	r.delayed.Add(1)
	r.pending.Add(1)
	r.wg.Add(1)
	var slot int
	var tm *time.Timer
	// The callback reads slot and tm under r.mu, so both are set under it:
	// a timer that fires at once waits here for its registration.
	r.mu.Lock()
	defer r.mu.Unlock()
	tm = time.AfterFunc(d.delay, func() {
		defer r.wg.Done()
		defer r.pending.Add(-1)
		r.mu.Lock()
		closed := r.closed
		if slot < len(r.timers) && r.timers[slot] == tm {
			r.timers[slot] = nil
		}
		r.mu.Unlock()
		if !closed {
			r.send(d.data, d.to)
		}
	})
	slot = r.addTimerLocked(tm)
}

// addTimerLocked records a pending timer in the first free slot (slots
// are never moved, so the index a timer's callback captured stays valid
// for its lifetime). Returns the slot index.
func (r *Relay) addTimerLocked(tm *time.Timer) int {
	for i, t := range r.timers {
		if t == nil {
			r.timers[i] = tm
			return i
		}
	}
	r.timers = append(r.timers, tm)
	return len(r.timers) - 1
}

func (r *Relay) send(data []byte, to netip.AddrPort) {
	if _, err := r.egress.WriteToUDPAddrPort(data, to); err != nil {
		return // receiver gone or buffer full: indistinguishable from link loss
	}
	r.forwarded.Add(1)
}

// Close shuts every socket and drops undelivered delayed copies. Safe to
// call more than once.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	atts := r.atts
	// Cancel pending delayed deliveries so Close does not wait out their
	// delays. A Stop that loses the race to a firing callback returns
	// false and that callback does its own bookkeeping (and sees closed).
	for i, tm := range r.timers {
		if tm != nil && tm.Stop() {
			r.timers[i] = nil
			r.wg.Done()
			r.pending.Add(-1)
		}
	}
	r.mu.Unlock()
	for _, a := range atts {
		_ = a.in.Close() // shutdown path; read loops exit on the close error
	}
	err := r.egress.Close()
	r.wg.Wait()
	return err
}
