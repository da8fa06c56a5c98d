package clash

import (
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

// cacheEntry is one tracked session. key and next make it a node of its
// address's chain (see Tracker.byAddr); the field order keeps the struct
// at 47 bytes, inside the allocator's 48-byte size class.
type cacheEntry struct {
	key          SessionKey
	next         *cacheEntry
	firstSeen    float64
	ownFirstSent float64
	addr         mcast.Addr
	owned        bool
	// defended and intruding hint that a pending defence may name the
	// entry in that role (see cancel).
	defended, intruding bool
}

// defense is a scheduled phase-3 defence of the older session against the
// newer one; entries, not keys, so a cancel's walk reads no key.
type defense struct {
	defended, intruder *cacheEntry
	dueAt              float64
}

// Tracker is the per-site clash protocol state machine. It consumes
// announcement observations (including echoes of the site's own
// announcements) and produces Actions. Not safe for concurrent use; the
// directory agent serialises access.
type Tracker struct {
	cfg   TrackerConfig
	rng   *stats.RNG
	cache map[SessionKey]*cacheEntry
	// byAddr heads, per address, the intrusive chain (cacheEntry.next) of
	// the sessions cached at that address. Invariant: every entry of cache
	// is on exactly the chain of its addr, and an address with no entry
	// has no head. link/unlink maintain it at every mutation site, so a
	// clash check walks the sessions sharing one address, not the cache.
	byAddr map[mcast.Addr]*cacheEntry
	// pending holds the phase-3 defences in scheduling order. A defence
	// lives as long as its clash: a move or Forget of either session, or
	// the defended one heard again, cancels it. So both its entries are on
	// one chain, and no pair is ever scheduled twice.
	pending []defense
	// defenses counts phase-1 re-announcements per (ours, intruder) pair,
	// for the post-partition tie-break (see checkClash).
	defenses map[defensePair]int
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
		cache:    make(map[SessionKey]*cacheEntry),
		byAddr:   make(map[mcast.Addr]*cacheEntry),
		defenses: make(map[defensePair]int),
	}
}

// link pushes e onto the chain of e.addr.
func (t *Tracker) link(e *cacheEntry) {
	e.next = t.byAddr[e.addr]
	t.byAddr[e.addr] = e
}

// unlink removes e from the chain of e.addr.
func (t *Tracker) unlink(e *cacheEntry) {
	switch head := t.byAddr[e.addr]; {
	case head != e:
		prev := head
		for prev.next != e {
			prev = prev.next
		}
		prev.next = e.next
	case e.next == nil:
		delete(t.byAddr, e.addr)
	default:
		t.byAddr[e.addr] = e.next
	}
	e.next = nil
}

// insert caches a new session at addr.
func (t *Tracker) insert(e *cacheEntry) {
	t.cache[e.key] = e
	t.link(e)
}

// move re-homes a cached session whose address changed. The move
// resolves what waited on it: every defence naming it (its owner is alive)
// and its tie-break counters (the stand-off is over).
func (t *Tracker) move(e *cacheEntry, addr mcast.Addr) {
	t.cancel(e, true)
	t.clearDefenseCounters(e.key)
	t.unlink(e)
	e.addr = addr
	t.link(e)
}

// AnnounceOwn records that this site announced its own session. Call it
// for the first announcement and for address changes.
func (t *Tracker) AnnounceOwn(key SessionKey, addr mcast.Addr, _ mcast.TTL, at float64) {
	e := t.cache[key]
	switch {
	case e == nil:
		// A key not in the cache has no pending defense or tie-break
		// counter (Forget clears both), so there is nothing to cancel.
		e = &cacheEntry{key: key, addr: addr, firstSeen: at}
		t.insert(e)
	case e.addr != addr:
		t.move(e, addr)
	}
	if !e.owned {
		e.owned = true
		e.ownFirstSent = at
	}
}

// Forget drops a session (deleted or expired) from the cache.
func (t *Tracker) Forget(key SessionKey) {
	if e, ok := t.cache[key]; ok {
		t.cancel(e, true)
		t.unlink(e)
		delete(t.cache, key)
	}
	t.clearDefenseCounters(key)
}

// CachedAddr returns the cached address of a session.
func (t *Tracker) CachedAddr(key SessionKey) (mcast.Addr, bool) { //mclint:unused the root package's index tests and clash's tests read the tracker's cache with it
	if e, ok := t.cache[key]; ok {
		return e.addr, true
	}
	return 0, false
}

// Observe processes a received announcement and returns any immediate
// actions (phase 1 and 2). Phase-3 defenses are scheduled internally and
// surface later through Due.
func (t *Tracker) Observe(obs Observation) []Action {
	e, ok := t.cache[obs.Key]
	if !ok {
		// New session.
		e = &cacheEntry{key: obs.Key, addr: obs.Addr, firstSeen: obs.At}
		t.insert(e)
		return t.checkClash(e, obs.At, false)
	}

	// A re-announcement of a session we were waiting to defend, or an
	// address change by an intruder, resolves pending defenses.
	moved := e.addr != obs.Addr
	if moved {
		t.move(e, obs.Addr)
	} else {
		// Re-announcement at the same address: its owner is alive, so
		// nobody needs to defend it on its behalf.
		t.cancel(e, false)
	}
	switch {
	case e.owned:
		// Echoes of our own session need no reaction.
		return nil
	case moved:
		// Check the moved session against everything at its new address.
		return t.checkClash(e, obs.At, false)
	default:
		// An unchanged re-announcement adds nothing for third parties
		// (no defense re-arm), but it *is* news to an owner whose
		// session it still clashes with: the mutual-defense stand-off
		// after a partition heal advances through exactly these
		// re-announcements, so run the owner-only check.
		return t.checkClash(e, obs.At, true)
	}
}

// checkClash reacts, per the three phases, to the other sessions cached
// at the address of seen (the entry just observed at time at). With
// ownedOnly set, only owner reactions (phases 1–2) fire; third-party
// defenses are not (re-)scheduled.
func (t *Tracker) checkClash(seen *cacheEntry, at float64, ownedOnly bool) []Action {
	var clashing []*cacheEntry
	for e := t.byAddr[seen.addr]; e != nil; e = e.next {
		if e != seen && (e.owned || !ownedOnly) {
			clashing = append(clashing, e)
		}
	}
	// Reaction order is observable — it fixes both the returned action
	// order and the RNG draw order of phase-3 suppression delays — and
	// chain order is insertion history, so react in ascending key order.
	if len(clashing) > 1 {
		sort.Slice(clashing, func(i, j int) bool { return clashing[i].key < clashing[j].key })
	}

	var actions []Action
	for _, e := range clashing {
		switch {
		case e.owned && at-e.ownFirstSent > t.cfg.RecentWindow:
			// Phase 1: our long-standing session is being squatted — defend.
			// After a healed partition *both* sessions can be long-standing,
			// and mutual defense would live-lock; the paper leaves this case
			// open ("existing sessions can only be disrupted by other
			// existing sessions that had not been known due to network
			// partitioning"). After two fruitless defenses we apply a
			// deterministic tie-break both sides compute identically —
			// the lexicographically larger session key moves (the rule
			// MADCAP-era allocators converged on).
			pair := defensePair{ours: e.key, intruder: seen.key}
			t.defenses[pair]++
			if t.defenses[pair] > 2 && e.key > seen.key {
				actions = append(actions, Action{Kind: ActionModifyAddress, Key: e.key, DueAt: at})
			} else {
				actions = append(actions, Action{Kind: ActionResendOwn, Key: e.key, DueAt: at})
			}
		case e.owned:
			// Phase 2: we just announced and lost the race — move.
			actions = append(actions, Action{Kind: ActionModifyAddress, Key: e.key, DueAt: at})
		default:
			// Phase 3: third party. Defend the *older* entry after a
			// suppression delay. seen was just learned or just moved, so
			// no pending defence names it: the pair is not armed yet.
			older, newer := e, seen
			if older.firstSeen > newer.firstSeen {
				older, newer = newer, older
			}
			older.defended, newer.intruding = true, true
			t.pending = append(t.pending, defense{older, newer, at + t.cfg.Delay.Sample(t.rng)})
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

// cancel drops the pending defences owed to e and, with both set, those e
// intrudes on, keeping the rest in order. It walks only if e's hints say
// such a defence may exist, and clears the hints it walked for; a hint a
// handed-over or otherwise cancelled defence left behind costs one walk.
func (t *Tracker) cancel(e *cacheEntry, both bool) {
	if !e.defended && !(both && e.intruding) {
		return
	}
	kept := t.pending[:0]
	for _, d := range t.pending {
		if d.defended != e && (!both || d.intruder != e) {
			kept = append(kept, d)
		}
	}
	clear(t.pending[len(kept):])
	t.pending = kept
	e.defended = false
	e.intruding = e.intruding && !both
}

// Due returns, in scheduling order, the phase-3 defenses whose
// suppression delay has elapsed without cancellation, and drops them. The
// caller re-announces the returned sessions on behalf of their
// originators.
func (t *Tracker) Due(now float64) []Action {
	var due []Action
	kept := t.pending[:0]
	for _, d := range t.pending {
		if d.dueAt <= now {
			due = append(due, Action{Kind: ActionDefendOther, Key: d.defended.key, DueAt: d.dueAt})
		} else {
			kept = append(kept, d)
		}
	}
	clear(t.pending[len(kept):])
	t.pending = kept
	return due
}

// PendingDefenses reports how many undelivered phase-3 timers exist
// (introspection for tests and benchmarks).
func (t *Tracker) PendingDefenses() int { return len(t.pending) }
