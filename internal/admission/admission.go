// Package admission is the control layer between the transport and the
// directory's soft state. The paper's announce–listen model assumes
// well-behaved participants: any host may announce, and every listener
// caches what it hears. A single hostile or buggy sender can therefore
// grow a listener's cache without bound, exhaust its per-origin fairness,
// or flood the shared announcement channel. This package supplies the
// three defences the directory composes in its receive path:
//
//   - a per-origin token-bucket rate limit on announcements and deletions
//     (Allow), with a bounded bucket table so origin churn cannot itself
//     become a memory attack;
//   - a deterministic admission plan for new sessions against a hard
//     session budget and per-origin quota (PlanNew): stale or deleted
//     entries are evicted first (lowest TTL scope breaking ties), and if
//     everything cached is fresh and live the newcomer is shed instead —
//     drop-newest, so established state is never displaced by a flood;
//   - a deterministic trim for over-budget checkpoint loads (TrimPlan),
//     which must get under budget even when nothing is stale.
//
// Everything is a pure function of its inputs plus the caller-supplied
// clock reading and an explicitly seeded stats.RNG (used only for the
// early-drop band of the rate limiter), so admission decisions replay
// bit-identically under the chaos harness. The controller is not safe for
// concurrent use; the directory serialises access under its own mutex,
// exactly as it does for the announcement cache and clash tracker.
package admission

import (
	"net/netip"
	"slices"
	"sort"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// Config parameterises a Controller. Zero values disable each mechanism,
// preserving the pre-admission behaviour of the directory.
type Config struct {
	// MaxSessions bounds the listened-session cache, counting every entry
	// (including deletion tombstones, which also occupy memory).
	// 0 = unlimited.
	MaxSessions int
	// MaxPerOrigin bounds cached sessions per announcing origin.
	// 0 = unlimited.
	MaxPerOrigin int
	// OriginRate is the sustained per-origin packet budget in
	// packets/second across announcements and deletions. 0 = unlimited.
	OriginRate float64
	// OriginBurst is the token-bucket depth in packets
	// (0 = max(8, 4×OriginRate)).
	OriginBurst float64
	// StaleAfter marks a cache entry evictable under budget pressure once
	// it has gone unheard this long. It should exceed the announcers'
	// steady re-announcement interval, or live sessions between
	// re-announcements become flood-evictable (0 = 15 minutes, three
	// missed steady announcements at the RFC 2974 floor).
	StaleAfter time.Duration
	// MaxOrigins bounds the rate limiter's bucket table (0 = 4096).
	MaxOrigins int
	// RNG drives the limiter's early-drop band. Required when OriginRate
	// is set; a seeded stream keeps chaos runs replayable.
	RNG *stats.RNG
}

// Candidate is the admission view of one cache entry.
type Candidate struct {
	Key       string
	Origin    netip.Addr
	TTL       mcast.TTL
	LastHeard time.Time
	Deleted   bool
}

// Outcome is the verdict on a new session.
type Outcome int

const (
	// Admit: cache the session (after applying Decision.Evict).
	Admit Outcome = iota
	// Shed: the cache is full of fresh live state; drop the newcomer.
	Shed
	// DenyQuota: the origin's session quota is exhausted.
	DenyQuota
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Admit:
		return "admit"
	case Shed:
		return "shed"
	case DenyQuota:
		return "deny-quota"
	default:
		return "outcome-?"
	}
}

// Decision is an admission plan: evict the named keys, then admit or not.
// Evictions are valid regardless of Outcome (they only ever name stale or
// deleted entries, which reclaiming is always correct).
type Decision struct {
	Outcome Outcome
	Evict   []string
}

type bucket struct {
	tokens float64
	last   time.Time
}

// Controller holds the rate limiter's per-origin state. The eviction
// planners are stateless; they live here only to share the Config.
type Controller struct {
	cfg       Config
	buckets   map[netip.Addr]*bucket
	bucketGCs uint64
}

// Stats is the controller's observability snapshot. Like every other
// Controller method it must be read under the caller's serialisation
// (the directory reads it under its own mutex for registry gauges).
type Stats struct {
	// Origins is the number of origins the rate limiter tracks.
	Origins int
	// BucketGCs counts bucket-table reclaims: each one means origin churn
	// (or a many-origin flood) pushed the table past its bound.
	BucketGCs uint64
}

// Stats returns the controller's current observability snapshot.
func (c *Controller) Stats() Stats {
	return Stats{Origins: len(c.buckets), BucketGCs: c.bucketGCs}
}

// New returns a Controller. The zero-valued Config admits everything.
func New(cfg Config) *Controller {
	if cfg.OriginBurst <= 0 {
		cfg.OriginBurst = 4 * cfg.OriginRate
		if cfg.OriginBurst < 8 {
			cfg.OriginBurst = 8
		}
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 15 * time.Minute
	}
	if cfg.MaxOrigins <= 0 {
		cfg.MaxOrigins = 4096
	}
	return &Controller{cfg: cfg, buckets: make(map[netip.Addr]*bucket)}
}

// Allow charges one packet from origin against its token bucket,
// reporting whether the packet may be processed. Below a quarter of the
// bucket's depth it sheds probabilistically (random early drop, drawn
// from the seeded RNG) so that a sender hovering at its budget degrades
// smoothly instead of oscillating between full service and blackout.
func (c *Controller) Allow(origin netip.Addr, now time.Time) bool {
	if c.cfg.OriginRate <= 0 {
		return true
	}
	b, ok := c.buckets[origin]
	if !ok {
		if len(c.buckets) >= c.cfg.MaxOrigins {
			c.gcBuckets(now)
		}
		b = &bucket{tokens: c.cfg.OriginBurst, last: now}
		c.buckets[origin] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * c.cfg.OriginRate
		if b.tokens > c.cfg.OriginBurst {
			b.tokens = c.cfg.OriginBurst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	if red := c.cfg.OriginBurst / 4; b.tokens < red && c.cfg.RNG != nil {
		if c.cfg.RNG.Bool((red - b.tokens) / red) {
			return false // early drop: still charged nothing
		}
	}
	b.tokens--
	return true
}

// gcBuckets reclaims bucket-table space: fully-refilled buckets are idle
// senders whose state is reconstructible, so they go first; if the table
// is still over budget (an active many-origin flood) the fullest buckets
// go regardless, in deterministic address order, keeping memory bounded
// at the price of forgetting some rate state.
func (c *Controller) gcBuckets(now time.Time) {
	c.bucketGCs++
	var addrs []netip.Addr
	for a := range c.buckets {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool {
		bi, bj := c.buckets[addrs[i]], c.buckets[addrs[j]]
		ti, tj := refilled(bi, now, c.cfg), refilled(bj, now, c.cfg)
		if ti != tj {
			return ti > tj // fullest (most idle) first
		}
		return addrs[i].Less(addrs[j])
	})
	target := c.cfg.MaxOrigins / 2
	for _, a := range addrs {
		if len(c.buckets) <= target {
			return
		}
		delete(c.buckets, a)
	}
}

// refilled projects a bucket's token count to now without mutating it.
func refilled(b *bucket, now time.Time, cfg Config) float64 {
	t := b.tokens
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		t += dt * cfg.OriginRate
	}
	if t > cfg.OriginBurst {
		t = cfg.OriginBurst
	}
	return t
}

// evictionOrder sorts candidates into the deterministic eviction
// preference: deletion tombstones first, then the longest-unheard, then
// the smallest TTL scope (a narrowly scoped session matters to fewer
// listeners), then lexical key so the order is total and replayable.
func evictionOrder(cands []Candidate) []Candidate {
	out := append([]Candidate(nil), cands...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Deleted != b.Deleted {
			return a.Deleted
		}
		if !a.LastHeard.Equal(b.LastHeard) {
			return a.LastHeard.Before(b.LastHeard)
		}
		if a.TTL != b.TTL {
			return a.TTL < b.TTL
		}
		return a.Key < b.Key
	})
	return out
}

// evictable reports whether an entry may be displaced by a newcomer:
// only tombstones and entries whose announcer has gone quiet. Fresh live
// state always wins over new state (drop-newest).
func (c *Controller) evictable(e Candidate, now time.Time) bool {
	return e.Deleted || now.Sub(e.LastHeard) > c.cfg.StaleAfter
}

// PlanNew decides the fate of a new session from origin given the current
// cache population. Callers must exclude their own sessions from cands —
// own state is never an eviction candidate.
func (c *Controller) PlanNew(cands []Candidate, origin netip.Addr, now time.Time) Decision {
	var d Decision
	ordered := evictionOrder(cands)
	evicted := make(map[string]bool)

	if c.cfg.MaxPerOrigin > 0 {
		mine := 0
		for _, e := range cands {
			if e.Origin == origin {
				mine++
			}
		}
		// Reclaim the origin's own stale/deleted entries before denying it.
		for _, e := range ordered {
			if mine < c.cfg.MaxPerOrigin {
				break
			}
			if e.Origin == origin && c.evictable(e, now) && !evicted[e.Key] {
				evicted[e.Key] = true
				d.Evict = append(d.Evict, e.Key)
				mine--
			}
		}
		if mine >= c.cfg.MaxPerOrigin {
			d.Outcome = DenyQuota
			return d
		}
	}

	if c.cfg.MaxSessions > 0 {
		total := len(cands) - len(d.Evict)
		for _, e := range ordered {
			if total < c.cfg.MaxSessions {
				break
			}
			if c.evictable(e, now) && !evicted[e.Key] {
				evicted[e.Key] = true
				d.Evict = append(d.Evict, e.Key)
				total--
			}
		}
		if total >= c.cfg.MaxSessions {
			d.Outcome = Shed
			return d
		}
	}
	d.Outcome = Admit
	return d
}

// Order is a cache's eviction order kept current at the cache's mutation
// sites (announce.Cache provides it), as PlanNewOrdered reads it. The
// candidates are what PlanNew would be handed — every cached entry except
// the listener's own sessions — and "in eviction order" and "evictable"
// mean exactly evictionOrder and evictable above.
type Order interface {
	// Candidates is the number of candidates.
	Candidates() int
	// CandidatesFrom is the number of candidates origin announced.
	CandidatesFrom(origin netip.Addr) int
	// AppendEvictable appends to dst the keys of the first n evictable
	// candidates in eviction order, or of all of them if there are fewer.
	AppendEvictable(dst []string, n int, now time.Time, staleAfter time.Duration) []string
	// AppendEvictableFrom is AppendEvictable over origin's candidates only.
	AppendEvictableFrom(dst []string, origin netip.Addr, n int, now time.Time, staleAfter time.Duration) []string
}

// PlanNewOrdered is PlanNew over a maintained Order instead of a fresh
// candidate list: the same outcome and the same evictions in the same
// sequence, without sorting the cache to find them. It asks only for as
// many evictions as the newcomer needs — one, when a full budget was within
// bounds before it arrived.
func (c *Controller) PlanNewOrdered(o Order, origin netip.Addr, now time.Time) Decision {
	var d Decision
	if c.cfg.MaxPerOrigin > 0 {
		// Reclaim the origin's own stale/deleted entries before denying it.
		if need := o.CandidatesFrom(origin) - c.cfg.MaxPerOrigin + 1; need > 0 {
			d.Evict = o.AppendEvictableFrom(d.Evict, origin, need, now, c.cfg.StaleAfter)
			if len(d.Evict) < need {
				d.Outcome = DenyQuota
				return d
			}
		}
	}
	if c.cfg.MaxSessions > 0 {
		reclaimed := d.Evict
		if need := o.Candidates() - len(reclaimed) - c.cfg.MaxSessions + 1; need > 0 {
			// What the quota step reclaimed is still in the order: ask for
			// that many more and filter the repeats out in place.
			got := o.AppendEvictable(reclaimed, need+len(reclaimed), now, c.cfg.StaleAfter)
			d.Evict = got[:len(reclaimed)]
			for _, k := range got[len(reclaimed):] {
				if need > 0 && !slices.Contains(reclaimed, k) {
					d.Evict = append(d.Evict, k)
					need--
				}
			}
			if need > 0 {
				d.Outcome = Shed
				return d
			}
		}
	}
	d.Outcome = Admit
	return d
}

// PlanNewGrouped is PlanNew over the concatenation of groups — the entry
// point of the sharded cache's per-shard candidate lists. The cache is no
// longer sharded (DESIGN.md §17.1); benchmark/shadow.go still compiles
// against this name, and it goes with the benchmark PR that re-points the
// probes (ROADMAP item 7).
func (c *Controller) PlanNewGrouped(groups [][]Candidate, origin netip.Addr, now time.Time) Decision {
	return c.PlanNew(slices.Concat(groups...), origin, now)
}

// TrimPlan returns the keys to evict so that the population fits both the
// session budget and every per-origin quota, evicting in the same
// deterministic preference order but unconditionally — a checkpoint
// larger than the budget must not over-admit merely because its entries
// were recently saved.
func (c *Controller) TrimPlan(cands []Candidate) []string {
	ordered := evictionOrder(cands)
	perOrigin := make(map[netip.Addr]int)
	for _, e := range cands {
		perOrigin[e.Origin]++
	}
	var evict []string
	remaining := len(cands)
	for _, e := range ordered {
		if c.cfg.MaxPerOrigin > 0 && perOrigin[e.Origin] > c.cfg.MaxPerOrigin {
			perOrigin[e.Origin]--
			remaining--
			evict = append(evict, e.Key)
		}
	}
	if c.cfg.MaxSessions > 0 && remaining > c.cfg.MaxSessions {
		over := make(map[string]bool, len(evict))
		for _, k := range evict {
			over[k] = true
		}
		for _, e := range ordered {
			if remaining <= c.cfg.MaxSessions {
				break
			}
			if !over[e.Key] {
				remaining--
				evict = append(evict, e.Key)
			}
		}
	}
	return evict
}
