package clash

import (
	"math"
	"sort"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// This file implements the three-phase clash detection and correction
// protocol of §3:
//
//  1. a site that has had a session announced *for some time* and discovers
//     a clash re-sends its announcement immediately (it defends; this only
//     happens after e.g. a network partition heals);
//  2. a site that *just* announced a session and sees a clashing
//     announcement within a small window immediately re-announces with a
//     modified address (propagation-delay races are resolved against the
//     newcomer, so existing sessions are never disrupted);
//  3. a third party that owns neither session waits a randomly chosen
//     delay and, if nobody else has responded, re-announces the older
//     session on behalf of its originator (defence against cache failures
//     and partitions separating the two announcers).

// SessionKey identifies a session independent of its current address
// (origin host + message id in SAP terms).
type SessionKey string

// ActionKind enumerates the protocol's possible reactions to a clash.
type ActionKind int

const (
	// ActionNone: no reaction required.
	ActionNone ActionKind = iota //mclint:unused names the zero Kind that a quiet Observe returns; clash tests compare against it
	// ActionResendOwn: phase 1 — immediately re-announce our own
	// long-standing session to defend its address.
	ActionResendOwn
	// ActionModifyAddress: phase 2 — we are the recent announcer; pick a
	// new address and re-announce.
	ActionModifyAddress
	// ActionDefendOther: phase 3 — re-announce another site's session on
	// its behalf (after the suppression delay has elapsed undisturbed).
	ActionDefendOther
)

// Action is a protocol reaction: Kind tells what to do for session Key;
// DueAt (milliseconds on the caller's timeline) tells when — immediate
// actions carry the observation time.
type Action struct {
	Kind  ActionKind
	Key   SessionKey
	DueAt float64
}

// Observation is one received session announcement.
type Observation struct {
	Key  SessionKey
	Addr mcast.Addr
	TTL  mcast.TTL
	At   float64 // receipt time, milliseconds
}

// TrackerConfig parameterises a Tracker.
type TrackerConfig struct {
	// RecentWindow is the §3 "small time window" (ms) within which our own
	// announcement counts as "just announced", making us the mover in a
	// propagation-delay race. A few announcement intervals is sensible.
	RecentWindow float64
	// Delay is the third-party suppression delay distribution. The paper's
	// conclusion: use ExponentialDelay so the responder count stays ~1–2
	// regardless of how many third parties saw the clash.
	Delay DelayDist
}

// Node is one tracked session's clash state. It is embedded where the
// session already lives — a directory's cache entry, its owned session —
// and the tracker links it onto the chain of its address (see
// Tracker.byAddr) and names it in pending defences, so the tracker holds no
// record of its own per session. Bind gives it its session's key, which it
// reads through the pointer and never copies. A Node's zero value is
// unlinked; it must not be copied or dropped while linked (ForgetNode
// unlinks it).
type Node struct {
	next *Node
	key  *string
	// at is, for a session heard from others, when the tracker first saw
	// it; once the session is owned, when this site first announced it.
	// No check reads the one a node does not hold: phase 3 compares two
	// heard sessions, phases 1 and 2 time an owned one.
	at     float64
	addr   mcast.Addr
	linked bool
	owned  bool
	// defended and intruding hint that a pending defence may name the
	// node in that role (see cancel).
	defended, intruding bool
}

// Bind names the session whose state n holds: key is where its container
// keeps the key string, for as long as n lives.
func (n *Node) Bind(key *string) { n.key = key }

// Key is the key of n's session.
func (n *Node) Key() SessionKey { return SessionKey(*n.key) }

// defense is a scheduled phase-3 defence of the older session against the
// newer one; nodes, not keys, so a cancel's walk reads no key.
type defense struct {
	defended, intruder *Node
	dueAt              float64
}

// Tracker is the per-site clash protocol state machine. It consumes
// announcement observations and the site's own announcements and produces
// Actions. Not safe for concurrent use; the directory agent serialises
// access.
//
// The session state it works on is the caller's Nodes, one per session:
// ObserveNode links a heard session's, AnnounceNode one the site owns, and
// ForgetNode unlinks either. A directory shows it no echo of its own
// sessions: the owned node already holds what an echo would tell. The
// keyed calls (Observe, AnnounceOwn, Forget) wrap them for callers that
// hold keys, keeping a node per key for them (keyed.go).
type Tracker struct {
	cfg TrackerConfig
	rng *stats.RNG
	// byAddr heads, per address, the intrusive chain (Node.next) of the
	// linked nodes at that address. Invariant: every linked node is on
	// exactly the chain of its addr, and an address with no node has no
	// head. link/unlink maintain it at every mutation site, so a clash
	// check walks the sessions sharing one address, not the cache.
	byAddr map[mcast.Addr]*Node
	// pending holds the phase-3 defences in scheduling order. A defence
	// lives as long as its clash: a move or Forget of either session, or
	// the defended one heard again, cancels it. So both its nodes are on
	// one chain, and no pair is ever scheduled twice.
	pending []defense
	// earliest is the earliest dueAt in pending (+Inf when none), kept by
	// the walks that already rewrite pending and by checkClash's appends,
	// so a Due with nothing due returns without a walk.
	earliest float64
	// defenses counts phase-1 re-announcements per (ours, intruder) pair,
	// for the post-partition tie-break (see checkClash).
	defenses map[defensePair]int
	// keyed is the keyed calls' node per key; nothing else fills it.
	keyed map[SessionKey]*keyedNode
}

type defensePair struct {
	ours, intruder SessionKey
}

// NewTracker returns a Tracker. rng drives the suppression delays.
func NewTracker(cfg TrackerConfig, rng *stats.RNG) *Tracker {
	if cfg.Delay == nil {
		panic("clash: TrackerConfig.Delay is required")
	}
	if cfg.RecentWindow < 0 {
		panic("clash: negative RecentWindow")
	}
	return &Tracker{
		cfg:      cfg,
		rng:      rng,
		byAddr:   make(map[mcast.Addr]*Node),
		earliest: math.Inf(1),
		defenses: make(map[defensePair]int),
		keyed:    make(map[SessionKey]*keyedNode),
	}
}

// link starts tracking n, heard or announced at addr at time at, on the
// chain of addr.
func (t *Tracker) link(n *Node, addr mcast.Addr, at float64) {
	*n = Node{next: t.byAddr[addr], key: n.key, at: at, addr: addr, linked: true}
	t.byAddr[addr] = n
}

// unlink removes n from the chain of n.addr.
func (t *Tracker) unlink(n *Node) {
	switch head := t.byAddr[n.addr]; {
	case head != n:
		prev := head
		for prev.next != n {
			prev = prev.next
		}
		prev.next = n.next
	case n.next == nil:
		delete(t.byAddr, n.addr)
	default:
		t.byAddr[n.addr] = n.next
	}
	n.next, n.linked = nil, false
}

// move re-homes a linked session whose address changed. The move
// resolves what waited on it: every defence naming it (its owner is alive)
// and its tie-break counters (the stand-off is over).
func (t *Tracker) move(n *Node, addr mcast.Addr) {
	t.cancel(n, true)
	t.clearDefenseCounters(n.Key())
	t.unlink(n)
	n.addr = addr
	n.next, n.linked = t.byAddr[addr], true
	t.byAddr[addr] = n
}

// AnnounceNode records that this site announced its own session, whose
// state n holds, at addr. Call it for the first announcement and for
// address changes.
func (t *Tracker) AnnounceNode(n *Node, addr mcast.Addr, at float64) {
	switch {
	case !n.linked:
		// An unlinked node has no pending defence or tie-break counter
		// (ForgetNode clears both), so there is nothing to cancel.
		t.link(n, addr, at)
	case n.addr != addr:
		t.move(n, addr)
	}
	if !n.owned {
		n.owned, n.at = true, at
	}
}

// ForgetNode drops a session (deleted, expired, evicted or withdrawn):
// the defences naming it and its tie-break counters go with it, and n is
// unlinked. An unlinked n has neither.
func (t *Tracker) ForgetNode(n *Node) {
	if !n.linked {
		return
	}
	t.cancel(n, true)
	t.unlink(n)
	t.clearDefenseCounters(n.Key())
}

// ObserveNode processes a received announcement of the session whose state
// n holds, at addr, heard at time at (ms), and returns any immediate
// actions (phase 1 and 2). Phase-3 defenses are scheduled internally and
// surface later through Due.
func (t *Tracker) ObserveNode(n *Node, addr mcast.Addr, at float64) []Action {
	if !n.linked {
		// New session.
		t.link(n, addr, at)
		return t.checkClash(n, at, false)
	}

	// A re-announcement of a session we were waiting to defend, or an
	// address change by an intruder, resolves pending defenses.
	moved := n.addr != addr
	if moved {
		t.move(n, addr)
	} else {
		// Re-announcement at the same address: its owner is alive, so
		// nobody needs to defend it on its behalf.
		t.cancel(n, false)
	}
	switch {
	case n.owned:
		// Echoes of our own session need no reaction.
		return nil
	case moved:
		// Check the moved session against everything at its new address.
		return t.checkClash(n, at, false)
	default:
		// An unchanged re-announcement adds nothing for third parties
		// (no defense re-arm), but it *is* news to an owner whose
		// session it still clashes with: the mutual-defense stand-off
		// after a partition heal advances through exactly these
		// re-announcements, so run the owner-only check.
		return t.checkClash(n, at, true)
	}
}

// checkClash reacts, per the three phases, to the other sessions linked
// at the address of seen (the node just observed at time at). With
// ownedOnly set, only owner reactions (phases 1–2) fire; third-party
// defenses are not (re-)scheduled.
func (t *Tracker) checkClash(seen *Node, at float64, ownedOnly bool) []Action {
	var clashing []*Node
	for n := t.byAddr[seen.addr]; n != nil; n = n.next {
		if n != seen && (n.owned || !ownedOnly) {
			clashing = append(clashing, n)
		}
	}
	// Reaction order is observable — it fixes both the returned action
	// order and the RNG draw order of phase-3 suppression delays — and
	// chain order is insertion history, so react in ascending key order.
	if len(clashing) > 1 {
		sort.Slice(clashing, func(i, j int) bool { return *clashing[i].key < *clashing[j].key })
	}

	var actions []Action
	for _, n := range clashing {
		switch {
		case n.owned && at-n.at > t.cfg.RecentWindow:
			// Phase 1: our long-standing session is being squatted — defend.
			// After a healed partition *both* sessions can be long-standing,
			// and mutual defense would live-lock; the paper leaves this case
			// open ("existing sessions can only be disrupted by other
			// existing sessions that had not been known due to network
			// partitioning"). After two fruitless defenses we apply a
			// deterministic tie-break both sides compute identically —
			// the lexicographically larger session key moves (the rule
			// MADCAP-era allocators converged on).
			pair := defensePair{ours: n.Key(), intruder: seen.Key()}
			t.defenses[pair]++
			if t.defenses[pair] > 2 && pair.ours > pair.intruder {
				actions = append(actions, Action{Kind: ActionModifyAddress, Key: pair.ours, DueAt: at})
			} else {
				actions = append(actions, Action{Kind: ActionResendOwn, Key: pair.ours, DueAt: at})
			}
		case n.owned:
			// Phase 2: we just announced and lost the race — move.
			actions = append(actions, Action{Kind: ActionModifyAddress, Key: n.Key(), DueAt: at})
		default:
			// Phase 3: third party. Defend the *older* session after a
			// suppression delay. seen was just learned or just moved, so
			// no pending defence names it: the pair is not armed yet.
			older, newer := n, seen
			if older.at > newer.at {
				older, newer = newer, older
			}
			older.defended, newer.intruding = true, true
			due := at + t.cfg.Delay.Sample(t.rng)
			t.pending = append(t.pending, defense{older, newer, due})
			t.earliest = min(t.earliest, due)
		}
	}
	return actions
}

// clearDefenseCounters resets phase-1 tie-break state involving key, used
// whenever that session moves or vanishes (the stand-off is over).
func (t *Tracker) clearDefenseCounters(key SessionKey) {
	for pair := range t.defenses {
		if pair.ours == key || pair.intruder == key {
			delete(t.defenses, pair)
		}
	}
}

// cancel drops the pending defences owed to n and, with both set, those n
// intrudes on, keeping the rest in order. It walks only if n's hints say
// such a defence may exist, and clears the hints it walked for; a hint a
// defence cancelled through the other node left behind costs one walk.
func (t *Tracker) cancel(n *Node, both bool) {
	if !n.defended && !(both && n.intruding) {
		return
	}
	kept := t.pending[:0]
	t.earliest = math.Inf(1)
	for _, d := range t.pending {
		if d.defended != n && (!both || d.intruder != n) {
			kept = append(kept, d)
			t.earliest = min(t.earliest, d.dueAt)
		}
	}
	clear(t.pending[len(kept):])
	t.pending = kept
	n.defended = false
	n.intruding = n.intruding && !both
}

// Due returns, in scheduling order, the phase-3 defenses whose
// suppression delay has elapsed without cancellation, and drops them. The
// caller re-announces the returned sessions on behalf of their
// originators. Before the earliest one is due it returns at once.
func (t *Tracker) Due(now float64) []Action {
	if !(t.earliest <= now) {
		return nil
	}
	var due []Action
	kept := t.pending[:0]
	t.earliest = math.Inf(1)
	for _, d := range t.pending {
		if d.dueAt <= now {
			due = append(due, Action{Kind: ActionDefendOther, Key: d.defended.Key(), DueAt: d.dueAt})
		} else {
			kept = append(kept, d)
			t.earliest = min(t.earliest, d.dueAt)
		}
	}
	clear(t.pending[len(kept):])
	t.pending = kept
	return due
}

// EachLinked calls fn with every linked node and the address of the chain
// it is on, in no set order: a node is linked, at that address, if fn
// sees it.
func (t *Tracker) EachLinked(fn func(chain mcast.Addr, n *Node)) { //mclint:unused the root package's index tests check where nodes live with it
	for addr, head := range t.byAddr { //mclint:maporder a check's walk: order-insensitive
		for n := head; n != nil; n = n.next {
			fn(addr, n)
		}
	}
}

// PendingDefenses reports how many undelivered phase-3 timers exist
// (introspection for tests and benchmarks).
func (t *Tracker) PendingDefenses() int { return len(t.pending) }
