package sessiondir

import (
	"context"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"time"

	"sessiondir/internal/admission"
	"sessiondir/internal/allocator"
	"sessiondir/internal/announce"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/transport"
)

// EventKind labels directory observability events.
type EventKind int

const (
	// EventAnnounceSent: we transmitted an announcement (own or defended).
	EventAnnounceSent EventKind = iota
	// EventSessionLearned: a previously unknown session appeared.
	EventSessionLearned
	// EventSessionExpired: a cached session timed out.
	EventSessionExpired
	// EventAddressChanged: one of our sessions moved due to a clash.
	EventAddressChanged
	// EventDefendedOwn: we re-announced to defend a long-standing session.
	EventDefendedOwn
	// EventDefendedOther: we re-announced another site's session (phase 3).
	EventDefendedOther
	// EventDeleteSent: we withdrew one of our sessions.
	EventDeleteSent
	// EventSessionEvicted: the admission layer displaced a cached session
	// to stay inside the configured budget.
	EventSessionEvicted
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventAnnounceSent:
		return "announce-sent"
	case EventSessionLearned:
		return "session-learned"
	case EventSessionExpired:
		return "session-expired"
	case EventAddressChanged:
		return "address-changed"
	case EventDefendedOwn:
		return "defended-own"
	case EventDefendedOther:
		return "defended-other"
	case EventDeleteSent:
		return "delete-sent"
	case EventSessionEvicted:
		return "session-evicted"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one observability notification.
type Event struct {
	Kind EventKind
	Key  string // session key
	Desc *session.Description
}

// Config assembles a Directory.
type Config struct {
	// Origin is this host's address, stamped on announcements. Required.
	Origin netip.Addr
	// Transport carries SAP packets. Required.
	Transport transport.Transport
	// Space is the dynamic address block to allocate from
	// (zero = the SAP dynamic block).
	Space mcast.AddrSpace
	// Allocator picks addresses (nil = Deterministic Adaptive IPRMA with
	// a 20% gap budget, the paper's AIPR-1).
	Allocator allocator.Allocator
	// Backoff is the re-announcement schedule (zero = paper's 5 s-start
	// exponential schedule with the SAP bandwidth-derived steady rate).
	Backoff announce.Backoff
	// CacheTimeout expires unheard sessions (0 = one hour).
	CacheTimeout time.Duration
	// RecentWindow is the clash protocol's "just announced" window
	// (0 = 30 s).
	RecentWindow time.Duration
	// Delay is the third-party defence delay distribution
	// (nil = exponential over [0 s, 3.2 s] with a 200 ms RTT).
	Delay clash.DelayDist
	// Clock supplies time (nil = time.Now). Injectable for tests.
	Clock func() time.Time
	// MaxSessions bounds the listened-session cache, tombstones included
	// (0 = unlimited). When full, stale or deleted entries are evicted
	// deterministically — never our own sessions — and if everything is
	// fresh the newcomer is shed instead (drop-newest).
	MaxSessions int
	// MaxPerOrigin bounds cached sessions per announcing origin
	// (0 = unlimited).
	MaxPerOrigin int
	// OriginRate is the per-origin token-bucket budget, in packets/second,
	// charged for every announcement and deletion a peer makes us process
	// (0 = unlimited).
	OriginRate float64
	// OriginBurst is the token-bucket depth in packets
	// (0 = max(8, 4×OriginRate)).
	OriginBurst float64
	// StaleAfter marks a cached session evictable under budget pressure
	// once unheard this long (0 = CacheTimeout/4). Keep it above the
	// steady announcement interval or live sessions become flood-evictable
	// between re-announcements.
	StaleAfter time.Duration
	// Shards is ignored: the cache is one announce.Cache under the
	// directory mutex (DESIGN.md §17.1). The field is here because
	// benchmark/dirscript.go sets it, and goes with the benchmark PR that
	// stops (ROADMAP item 8).
	Shards int
	// Seed drives the randomised choices (0 = arbitrary fixed seed).
	Seed uint64
	// OnEvent, if set, receives observability events synchronously; it
	// must not call back into the Directory.
	OnEvent func(Event)
	// Obs, when non-nil, is the registry the directory registers its
	// instruments on (nil = a private registry, reachable via Registry()).
	// One directory per registry: a second directory on the same registry
	// fails New with a duplicate-name error.
	Obs *obs.Registry
	// Trace, when non-nil, receives one structured event per protocol
	// decision (allocate, announce, clash move, defense, learn, expire,
	// evict, shed, delete), stamped with the directory's virtual-time
	// milliseconds. Recording is lock-free and draws no randomness, so
	// tracing a seeded chaos run does not perturb its schedule.
	Trace *obs.Trace
}

// Overload degradation tiers. When the listened-session cache's *fresh*
// occupancy nears the MaxSessions budget the directory sheds work in a
// fixed order — optional protocol work first, listen-cache admissions
// second, announcements never (our own sessions must stay visible, or
// the overload would also partition us). Fresh means heard within
// StaleAfter and not tombstoned: stale entries are reclaimable on demand
// by the admission planner, so they are capacity, not pressure — and
// counting them would leave the directory degraded forever after a flash
// crowd goes quiet.
//
//	level 0 — normal operation.
//	level 1 — fresh occupancy ≥ 75% of MaxSessions: third-party
//	          (phase-3) defenses are suppressed. They are an
//	          optimization, not a correctness requirement; the session's
//	          owner still defends.
//	level 2 — fresh occupancy ≥ 95%: additionally, only one in
//	          degradeAdmitSample previously-unknown sessions is put to
//	          the admission planner (the rest are shed outright). The
//	          sampled path keeps stale-first eviction flowing, so the
//	          cache still turns over, and the level decays on its own
//	          once the flood's entries go stale.
//
// The fresh count is O(cache) to take, so it is recomputed on the
// once-per-second Step path and on scrape/accessor paths, never per
// packet — the packet path reads the last computed tier.
//
// Level 2 was introduced to bound what was then an O(cache) candidate scan
// per unknown session. The cache now keeps its eviction order current and
// a plan costs O(log cache), but which newcomers a saturated listener
// learns is protocol behaviour that seeded replays pin, so the sampling
// stays — and with it its floor: it only engages when the budget is at
// least degradeMinBudget. With MaxSessions unset there is no budget to
// measure against and the level is always 0.
const (
	degradeL1Pct       = 75 // cache occupancy %, level 1 threshold
	degradeL2Pct       = 95 // cache occupancy %, level 2 threshold
	degradeAdmitSample = 4  // level 2: 1-in-N unknown sessions admitted
	degradeMinBudget   = 32 // smallest MaxSessions where level 2 can engage
)

type ownedSession struct {
	desc          *session.Description
	announceCount int
	nextAnnounce  time.Time
	viewPos       int32 // slot in Directory.ownView
}

// Directory is a session directory agent: announcer, listener, address
// allocator and clash resolver in one. Safe for concurrent use.
type Directory struct {
	cfg   Config
	space mcast.AddrSpace
	alloc *allocator.Instrumented

	mu    sync.Mutex
	rng   *stats.RNG
	owned map[string]*ownedSession
	cache *announce.Cache
	// digestSeed keys sap.PayloadDigest for this directory: the resolved
	// Config.Seed, so a replay digests every payload as the recording did.
	digestSeed uint64
	// ownView is the owned sessions' share of the allocator view, kept
	// current where owned changes; the cache keeps the heard share, from
	// the first allocation on (heardView), so a directory that only ever
	// listens does not carry one. viewBuf is the buffer viewLocked joins
	// the two shares in.
	ownView   announce.ViewSet
	heardView bool
	viewBuf   []allocator.SessionInfo
	admit     *admission.Controller
	tracker   *clash.Tracker
	epoch     time.Time
	nextID    uint64
	closed    bool
	// degradeTick counts unknown-session packets seen at degradation
	// level 2; every degradeAdmitSample-th one takes the full admission
	// path so the cache keeps turning over.
	degradeTick uint64
	// degradeLevel is the tier computed by the last computeDegradeLocked;
	// the per-packet path reads it instead of rescanning the cache.
	degradeLevel int
	// staleAfter mirrors the admission controller's resolved staleness
	// horizon; entries older than this are reclaimable, hence not counted
	// as degradation pressure.
	staleAfter time.Duration
	// outbox holds packets built under mu and transmitted after unlock, so
	// synchronous transports whose recipients react immediately (the
	// in-process Bus) cannot re-enter and deadlock.
	outbox []transport.Datagram
	// journal, when attached (OpenCacheStore), receives encoded cache
	// deltas; jqueue accumulates them under mu at each mutation site and
	// flush drains them outside mu. jmu serializes drains and
	// checkpoints so concurrent flushes cannot reorder delta batches on
	// their way to the journal — the on-disk order must match the queue
	// order. Lock order: jmu before mu, never the reverse.
	jmu     sync.Mutex
	journal *CacheStore
	jqueue  [][]byte

	reg   *obs.Registry
	trace *obs.Trace
	ins   dirInstruments
}

// Metrics are the directory's operational counters, as exposed by sdrd.
type Metrics struct {
	AnnouncementsSent   uint64 // SAP announcements transmitted (own + defended)
	DeletionsSent       uint64
	PacketsReceived     uint64 // well-formed SAP packets processed
	PacketsMalformed    uint64 // undecodable packets or payloads dropped
	SessionsLearned     uint64 // distinct sessions (or new versions) cached
	SessionsExpired     uint64
	ClashAddressChanges uint64 // phase-2 moves of our own sessions
	ClashDefensesOwn    uint64 // phase-1 re-announcements
	ClashDefensesThird  uint64 // phase-3 defenses of others' sessions

	// Admission-control counters (zero unless the budgets in Config are set,
	// except the validation counters, which are always live).
	Shed          uint64 // new sessions dropped because the cache was full of fresh state
	QuotaDrops    uint64 // packets dropped by per-origin rate limit or session quota
	ForgedReports uint64 // announcements failing clash-report validation, dropped
	ForgedDeletes uint64 // deletions whose origin did not match the cached announcement
	Evictions     uint64 // cached sessions displaced to stay inside the budget

	// Degradation counters (zero unless the cache crossed a tier).
	DegradedDefenses uint64 // phase-3 defenses suppressed at level ≥ 1
	DegradedLearns   uint64 // unknown sessions shed without an admission scan at level 2
}

// dirInstruments holds the directory's registry-backed counters. The
// Metrics struct is a snapshot view over these; every hot-path update is
// a single atomic add.
type dirInstruments struct {
	announcementsSent *obs.Counter
	deletionsSent     *obs.Counter
	packetsReceived   *obs.Counter
	packetsMalformed  *obs.Counter
	sessionsLearned   *obs.Counter
	sessionsExpired   *obs.Counter
	clashMoves        *obs.Counter
	clashDefensesOwn  *obs.Counter
	clashDefensesThrd *obs.Counter
	shed              *obs.Counter
	quotaDrops        *obs.Counter
	forgedReports     *obs.Counter
	forgedDeletes     *obs.Counter
	evictions         *obs.Counter
	degradedDefenses  *obs.Counter
	degradedLearns    *obs.Counter
	refreshFast       *obs.Counter
	packetBytes       *obs.Histogram
	store             cacheStoreInstruments
}

// packetSizeBounds buckets received datagram sizes: SAP announcements
// cluster under 1 kB (RFC 2974's recommendation), so the low buckets are
// dense and the tail covers the UDP maximum.
var packetSizeBounds = []int64{64, 128, 256, 512, 1024, 4096, 16384, 65536}

func newDirInstruments(r *obs.Registry) (dirInstruments, error) {
	var ins dirInstruments
	counters := []struct {
		dst        **obs.Counter
		name, help string
	}{
		{&ins.announcementsSent, "dir_announcements_sent_total", "SAP announcements transmitted (own + defended)"},
		{&ins.deletionsSent, "dir_deletions_sent_total", "SAP deletions transmitted"},
		{&ins.packetsReceived, "dir_packets_received_total", "well-formed SAP packets processed"},
		{&ins.packetsMalformed, "dir_packets_malformed_total", "undecodable packets or payloads dropped"},
		{&ins.sessionsLearned, "dir_sessions_learned_total", "distinct sessions (or new versions) cached"},
		{&ins.sessionsExpired, "dir_sessions_expired_total", "cached sessions that timed out"},
		{&ins.clashMoves, "dir_clash_moves_total", "phase-2 address moves of our own sessions"},
		{&ins.clashDefensesOwn, "dir_clash_defenses_own_total", "phase-1 re-announcements defending our own sessions"},
		{&ins.clashDefensesThrd, "dir_clash_defenses_third_total", "phase-3 defenses of other sites' sessions"},
		{&ins.shed, "dir_admission_shed_total", "new sessions dropped because the cache was full of fresh state"},
		{&ins.quotaDrops, "dir_admission_quota_drops_total", "packets dropped by per-origin rate limit or session quota"},
		{&ins.forgedReports, "dir_admission_forged_reports_total", "announcements failing clash-report validation, dropped"},
		{&ins.forgedDeletes, "dir_admission_forged_deletes_total", "deletions whose origin did not match the cached announcement"},
		{&ins.evictions, "dir_admission_evictions_total", "cached sessions displaced to stay inside the budget"},
		{&ins.degradedDefenses, "dir_degraded_defenses_suppressed_total", "phase-3 defenses suppressed under overload degradation"},
		{&ins.degradedLearns, "dir_degraded_learns_shed_total", "unknown sessions shed without an admission scan at degradation level 2"},
		{&ins.refreshFast, "dir_refresh_fast_total", "re-announcements refreshed without a parse"},
		{&ins.store.checkpointErrs, "cache_checkpoint_errors_total", "cache checkpoint (snapshot compaction) attempts that failed"},
		{&ins.store.compactions, "cache_checkpoint_compactions_total", "successful cache snapshot compactions"},
		{&ins.store.appendErrs, "cache_journal_append_errors_total", "journal delta batches refused or failed by the store"},
		{&ins.store.appended, "cache_journal_records_total", "session deltas durably appended to the cache journal"},
		{&ins.store.salvaged, "cache_recovery_salvaged_total", "records salvaged from damaged checkpoint files"},
		{&ins.store.corrupt, "cache_recovery_corrupt_total", "checkpoint files found corrupt at recovery (quarantined)"},
	}
	for _, c := range counters {
		m, err := r.Counter(c.name, c.help)
		if err != nil {
			return ins, err
		}
		*c.dst = m
	}
	h, err := r.Histogram("dir_packet_size_bytes", "received datagram sizes, pre-decode", packetSizeBounds)
	if err != nil {
		return ins, err
	}
	ins.packetBytes = h
	return ins, nil
}

// registerGauges exposes the directory's population state as registry
// views. Every callback takes d.mu, so scrapes must never run under it —
// the registry is only read from scrape paths (HTTP, bench snapshots),
// never from inside the directory.
func (d *Directory) registerGauges() error {
	gauges := []struct {
		name, help string
		fn         func() float64
	}{
		{"dir_owned_sessions", "sessions this directory announces", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(len(d.owned))
		}},
		{"dir_cache_sessions", "listened-session cache occupancy, tombstones included", func() float64 {
			return float64(d.CacheSize())
		}},
		{"dir_admission_origins", "origins tracked by the per-origin rate limiter", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.admit.Stats().Origins)
		}},
		{"shed_degradation_level", "overload degradation tier: 0 normal, 1 phase-3 defenses shed, 2 listen-cache admissions sampled", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.computeDegradeLocked(d.cfg.Clock()))
		}},
	}
	for _, g := range gauges {
		if err := d.reg.GaugeFunc(g.name, g.help, g.fn); err != nil {
			return err
		}
	}
	return d.reg.CounterFunc("dir_admission_bucket_gcs_total",
		"rate-limiter bucket-table reclaims under origin churn", func() uint64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return d.admit.Stats().BucketGCs
		})
}

// flush transmits queued packets outside the lock. Reactions triggered at
// recipients may enqueue more packets here (via HandleBatch); the loop drains
// until quiescent.
func (d *Directory) flush() {
	for {
		d.drainJournal()
		d.mu.Lock() //mclint:looplock re-taken each round on purpose so handlers can enqueue between drains
		if len(d.outbox) == 0 {
			d.mu.Unlock()
			return
		}
		batch := d.outbox
		d.outbox = nil
		d.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = transport.SendAll(ctx, d.cfg.Transport, batch) // transient errors: next interval retries
		cancel()
	}
}

// journalLocked queues one encoded cache delta for the attached
// journal. Caller holds d.mu. A nil payload (unencodable description)
// is skipped — the next checkpoint snapshot covers it if it ever
// becomes encodable.
func (d *Directory) journalLocked(p []byte) {
	if d.journal == nil || p == nil {
		return
	}
	d.jqueue = append(d.jqueue, p)
}

// drainJournal hands queued deltas to the journal in queue order. jmu
// spans the take-and-append so two concurrent flushes cannot interleave
// their batches out of order; the append itself runs outside d.mu so
// disk latency never blocks the packet path.
func (d *Directory) drainJournal() {
	d.jmu.Lock()
	defer d.jmu.Unlock()
	d.mu.Lock()
	j := d.journal
	batch := d.jqueue
	d.jqueue = nil
	d.mu.Unlock()
	if j == nil || len(batch) == 0 {
		return
	}
	j.appendBatch(batch)
}

// New assembles and starts listening. Call Run (or Step in virtual-time
// tests) to drive timers.
func New(cfg Config) (*Directory, error) {
	if !cfg.Origin.IsValid() || !cfg.Origin.Is4() {
		return nil, fmt.Errorf("sessiondir: Config.Origin must be a valid IPv4 address")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("sessiondir: Config.Transport is required")
	}
	if cfg.Space.Size == 0 {
		cfg.Space = mcast.SAPDynamicSpace()
	}
	if cfg.Allocator == nil {
		cfg.Allocator = allocator.NewAdaptive(cfg.Space.Size, allocator.AdaptiveConfig{
			GapFraction: 0.2,
			Name:        "AIPR-1 (20% gap)",
		})
	}
	if cfg.Allocator.Size() != cfg.Space.Size {
		return nil, fmt.Errorf("sessiondir: allocator manages %d addresses but the space has %d",
			cfg.Allocator.Size(), cfg.Space.Size)
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //mclint:detrand the production default; every deterministic caller injects Config.Clock
	}
	if cfg.Backoff == (announce.Backoff{}) {
		cfg.Backoff = announce.DefaultBackoff(announce.MinInterval)
	}
	if cfg.RecentWindow == 0 {
		cfg.RecentWindow = 30 * time.Second
	}
	if cfg.Delay == nil {
		cfg.Delay = clash.NewExponentialDelay(0, 3200, 200)
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x5d0_1998
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	alloc, err := allocator.Instrument(cfg.Allocator, reg)
	if err != nil {
		return nil, fmt.Errorf("sessiondir: %w", err)
	}
	ins, err := newDirInstruments(reg)
	if err != nil {
		return nil, fmt.Errorf("sessiondir: %w", err)
	}
	d := &Directory{
		cfg:        cfg,
		space:      cfg.Space,
		alloc:      alloc,
		rng:        stats.NewRNG(seed),
		owned:      make(map[string]*ownedSession),
		cache:      announce.NewCache(cfg.CacheTimeout),
		epoch:      cfg.Clock(),
		digestSeed: seed,
		reg:        reg,
		trace:      cfg.Trace,
		ins:        ins,
	}
	if cfg.MaxSessions > 0 || cfg.MaxPerOrigin > 0 {
		// Without a budget nothing is ever evicted, and the listener path
		// is spared the upkeep.
		d.cache.TrackOrder(cfg.Origin)
	}
	staleAfter := cfg.StaleAfter
	if staleAfter <= 0 {
		staleAfter = d.cache.Timeout / 4
	}
	d.staleAfter = staleAfter
	d.admit = admission.New(admission.Config{
		MaxSessions:  cfg.MaxSessions,
		MaxPerOrigin: cfg.MaxPerOrigin,
		OriginRate:   cfg.OriginRate,
		OriginBurst:  cfg.OriginBurst,
		StaleAfter:   staleAfter,
		// An independent stream derived from the seed, not split from d.rng:
		// enabling admission must not shift the allocator's or the clash
		// tracker's draw sequences.
		RNG: stats.NewRNG(seed ^ 0xad3155_0bad),
	})
	d.tracker = clash.NewTracker(clash.TrackerConfig{
		RecentWindow: float64(cfg.RecentWindow.Milliseconds()),
		Delay:        cfg.Delay,
	}, d.rng.Split())
	if err := d.registerGauges(); err != nil {
		return nil, fmt.Errorf("sessiondir: %w", err)
	}
	cfg.Transport.Subscribe(d.HandleBatch)
	return d, nil
}

// Registry returns the directory's metrics registry — the one from
// Config.Obs, or the private registry created when none was supplied.
func (d *Directory) Registry() *obs.Registry { return d.reg }

// ms converts a wall time to the tracker's millisecond timeline.
func (d *Directory) ms(t time.Time) float64 {
	return float64(t.Sub(d.epoch)) / float64(time.Millisecond)
}

func (d *Directory) emit(e Event) {
	if d.cfg.OnEvent != nil {
		d.cfg.OnEvent(e)
	}
}

// CreateSession allocates a multicast address for desc (overwriting
// desc.Group), registers it as owned, and announces it immediately.
// The returned description is the directory's own copy.
func (d *Directory) CreateSession(desc *session.Description) (*session.Description, error) {
	out, err := d.createSession(desc)
	d.flush()
	return out, err
}

func (d *Directory) createSession(desc *session.Description) (*session.Description, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("sessiondir: closed")
	}
	now := d.cfg.Clock()
	c := d.prepOwnCopyLocked(desc, now)
	addr, err := d.alloc.Allocate(d.viewLocked(), c.TTL, d.rng)
	if err != nil {
		return nil, fmt.Errorf("sessiondir: allocate: %w", err)
	}
	return d.registerOwnedLocked(c, addr, now)
}

// prepOwnCopyLocked makes the directory's own copy of a description about
// to be created: deep media slice, our origin, and defaulted ID/version.
func (d *Directory) prepOwnCopyLocked(desc *session.Description, now time.Time) session.Description {
	c := *desc
	c.Media = append([]session.Media(nil), desc.Media...)
	c.Origin = d.cfg.Origin
	if c.ID == 0 {
		d.nextID++
		c.ID = uint64(now.UnixNano())>>16 + d.nextID
	}
	if c.Version == 0 {
		c.Version = 1
	}
	return c
}

// registerOwnedLocked binds an allocated address to a prepared copy,
// registers it as owned, and announces it. On failure nothing is
// retained.
func (d *Directory) registerOwnedLocked(c session.Description, addr mcast.Addr, now time.Time) (*session.Description, error) {
	c.Group = d.space.Group(addr)
	if err := c.Validate(); err != nil {
		return nil, err
	}
	key := c.Key()
	own := &ownedSession{desc: &c}
	d.owned[key] = own
	d.ownView.Put(&own.viewPos, allocator.SessionInfo{Addr: addr, TTL: c.TTL})
	d.tracker.AnnounceOwn(clash.SessionKey(key), addr, c.TTL, d.ms(now))
	d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceAllocate, Key: key, Addr: uint32(addr)})
	if err := d.announceLocked(own, now); err != nil {
		delete(d.owned, key)
		d.ownView.Remove(&own.viewPos)
		d.tracker.Forget(clash.SessionKey(key))
		return nil, err
	}
	return &c, nil
}

// CreateSessionBatch creates several sessions in one pass, amortising the
// allocator's per-call view scan: consecutive descriptions with the same
// scope share a single AllocateBatch, which computes band/partition state
// once for the whole run (the addresses are bit-identical to sequential
// CreateSession calls; see allocator.Allocator.AllocateBatch). Results align
// with descs by index. On error the sessions created before the failure
// stay created and are returned with it — callers retrying a partial
// burst should resubmit only the tail.
func (d *Directory) CreateSessionBatch(descs []*session.Description) ([]*session.Description, error) {
	out, err := d.createSessionBatch(descs)
	d.flush()
	return out, err
}

func (d *Directory) createSessionBatch(descs []*session.Description) ([]*session.Description, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("sessiondir: closed")
	}
	now := d.cfg.Clock()
	out := make([]*session.Description, 0, len(descs))
	addrs := make([]mcast.Addr, 0, len(descs))
	for i := 0; i < len(descs); {
		// One allocator pass per same-TTL run, in input order.
		j := i
		for j < len(descs) && descs[j].TTL == descs[i].TTL {
			j++
		}
		var allocErr error
		addrs, allocErr = d.alloc.AllocateBatch(d.viewLocked(), descs[i].TTL, j-i, addrs[:0], d.rng)
		// Register whatever the run yielded even when it ran out mid-way:
		// sequential CreateSession calls would have created exactly these
		// before hitting the same failure.
		for k, addr := range addrs {
			c := d.prepOwnCopyLocked(descs[i+k], now)
			created, err := d.registerOwnedLocked(c, addr, now)
			if err != nil {
				return out, err
			}
			out = append(out, created)
		}
		if allocErr != nil {
			return out, fmt.Errorf("sessiondir: allocate batch: %w", allocErr)
		}
		i = j
	}
	return out, nil
}

// viewLocked returns the allocator view: every live cached session plus
// our own, expressed as address indices. Sessions outside the managed
// space (foreign blocks) are ignored, as sdr does; a session both owned
// and heard back appears twice. Both shares are kept current at their
// mutation sites, so this is two copies into viewBuf, not a cache scan.
// The result is valid until the next call.
func (d *Directory) viewLocked() []allocator.SessionInfo {
	if !d.heardView {
		d.cache.TrackView(d.space)
		d.heardView = true
	}
	if n := d.cache.ViewLen() + d.ownView.Len(); cap(d.viewBuf) < n {
		d.viewBuf = make([]allocator.SessionInfo, 0, n+n/8)
	}
	return d.ownView.AppendTo(d.cache.AppendView(d.viewBuf[:0]))
}

// announceLocked transmits one SAP announcement for an owned session and
// schedules the next per the back-off schedule.
func (d *Directory) announceLocked(own *ownedSession, now time.Time) error {
	if err := d.sendDescLocked(own.desc, sap.Announce); err != nil {
		return err
	}
	steady := announce.SteadyInterval(d.cache.TotalAdBytes(), announce.DefaultBandwidthBps)
	b := d.cfg.Backoff
	if b.Steady < steady {
		b.Steady = steady
	}
	own.nextAnnounce = now.Add(b.IntervalAfter(own.announceCount))
	own.announceCount++
	d.ins.announcementsSent.Inc()
	if idx, ok := d.space.Index(own.desc.Group); ok {
		d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceAnnounce, Key: own.desc.Key(), Addr: uint32(idx)})
	}
	d.emit(Event{Kind: EventAnnounceSent, Key: own.desc.Key(), Desc: own.desc})
	return nil
}

// sendDescLocked marshals a description and queues it for transmission
// with the session's own scope (announcements travel exactly as far as the
// session's data). Actual transmission happens in flush, outside the lock.
func (d *Directory) sendDescLocked(desc *session.Description, typ sap.MessageType) error {
	payload, err := desc.MarshalSDP()
	if err != nil {
		return err
	}
	pkt := sap.Packet{
		Type:      typ,
		MsgIDHash: sap.MsgIDHashOf(payload),
		Origin:    desc.Origin,
		Payload:   payload,
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		return err
	}
	d.outbox = append(d.outbox, transport.Datagram{Data: wire, Scope: desc.TTL})
	return nil
}

// WithdrawSession deletes one of our sessions, sending a SAP deletion.
func (d *Directory) WithdrawSession(key string) error {
	err := d.withdrawSession(key)
	d.flush()
	return err
}

func (d *Directory) withdrawSession(key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	own, ok := d.owned[key]
	if !ok {
		return fmt.Errorf("sessiondir: not our session: %s", key)
	}
	delete(d.owned, key)
	d.ownView.Remove(&own.viewPos)
	d.tracker.Forget(clash.SessionKey(key))
	if err := d.sendDescLocked(own.desc, sap.Delete); err != nil {
		return err
	}
	d.ins.deletionsSent.Inc()
	d.trace.Record(obs.TraceEvent{At: d.ms(d.cfg.Clock()), Kind: obs.TraceDelete, Key: key})
	d.emit(Event{Kind: EventDeleteSent, Key: key, Desc: own.desc})
	return nil
}

// Sessions returns a snapshot of all known live sessions (cached + owned),
// in key order.
func (d *Directory) Sessions() []*session.Description {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := d.cache.Live()
	byKey := make(map[string]*session.Description, len(live)+len(d.owned))
	for _, e := range live {
		byKey[e.Key()] = e.Desc
	}
	for key, own := range d.owned {
		byKey[key] = own.desc // our own copy over whatever we heard of it
	}
	out := make([]*session.Description, 0, len(byKey))
	for _, key := range slices.Sorted(maps.Keys(byKey)) {
		out = append(out, byKey[key])
	}
	return out
}

// OwnSessions returns the sessions this directory announces, in key order.
func (d *Directory) OwnSessions() []*session.Description {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*session.Description, 0, len(d.owned))
	for _, key := range slices.Sorted(maps.Keys(d.owned)) {
		out = append(out, d.owned[key].desc)
	}
	return out
}

// parsedPacket is the outcome of the lock-free half of packet handling: the
// decoded SAP header, the digest of the payload and a guess at the session
// key (ok), or a malformed verdict (!ok, already counted). pkt.Payload
// aliases the datagram (an inflated payload is its own), which is on loan
// until the receive handler returns; the locked half reads it — to parse
// it, unless the digest shows it need not — inside that call, and the
// Description parsed out of it aliases nothing.
type parsedPacket struct {
	pkt sap.Packet
	// desc and key are set once the payload has been parsed, which the
	// locked half does for every packet it cannot treat as a refresh. A
	// packet that arrives there with desc already set is not parsed again.
	desc *session.Description
	key  string
	// digest is sap.PayloadDigest of the payload; peek[:peekLen] is what
	// session.PeekKey made of its o= line.
	digest  uint64
	peek    [40]byte
	peekLen uint8
	ok      bool
}

// decodePacket is the pure pre-lock half of the receive path: SAP decode
// (and inflate), payload-type check, payload digest and key peek, and the
// pre-decode observability (size histogram, malformed counter — both
// atomic, the only state it touches, so concurrent receivers decode
// without waiting on each other).
func (d *Directory) decodePacket(data []byte) parsedPacket {
	d.ins.packetBytes.Observe(int64(len(data)))
	var p parsedPacket
	if err := p.pkt.DecodeMaybeCompressed(data); err != nil {
		d.ins.packetsMalformed.Inc()
		return p // malformed packets are dropped silently, as SAP requires
	}
	if p.pkt.EffectivePayloadType() != sap.PayloadTypeSDP {
		d.ins.packetsMalformed.Inc()
		return p
	}
	p.digest = sap.PayloadDigest(d.digestSeed, p.pkt.Payload)
	p.peekLen = uint8(len(session.PeekKey(p.peek[:0], p.pkt.Payload)))
	p.ok = true
	return p
}

// HandleBatch is the receive path, the directory's transport.Handler: the
// lock is taken once per batch, not once per datagram. The whole batch is
// decoded first, outside the lock; one lock epoch then applies the
// packets in arrival order — refreshing, or parsing and applying, each in
// its turn — then the outbox is flushed. That is what preserves the
// bit-identical replay contract: the protocol state transitions and RNG
// draws are exactly those of len(ms) batches of one. The datagrams are
// read only inside the call and nothing is kept from them (see
// parsedPacket).
func (d *Directory) HandleBatch(ms []transport.Message) {
	if len(ms) == 0 {
		return
	}
	// A batch of one — all the in-process fabrics deliver — decodes on the
	// stack.
	var one [1]parsedPacket
	parsed := one[:]
	if len(ms) > 1 {
		parsed = make([]parsedPacket, len(ms))
	}
	for i := range ms {
		parsed[i] = d.decodePacket(ms[i].Data)
	}
	d.mu.Lock()
	for i := range parsed {
		d.applyParsedLocked(&parsed[i])
	}
	d.mu.Unlock()
	d.flush()
}

// applyParsedLocked is the locked half of the receive path: the parse
// (unless the payload is one the cache already holds), admission,
// validation, cache and clash-tracker mutation. Caller holds d.mu; calls
// across a batch must run in arrival order.
func (d *Directory) applyParsedLocked(p *parsedPacket) {
	if !p.ok || d.closed {
		return
	}
	// An unchanged re-announcement of a cached session (refresh != nil) is
	// not parsed; everything else is, here, under the lock and not ahead of
	// it: whether a packet needs parsing depends on what the packets before
	// it left in the cache, and one receive loop feeds this (DESIGN.md
	// §17.1).
	var refresh *announce.Entry
	if p.desc == nil {
		if refresh = d.unchangedLocked(p); refresh == nil {
			desc, err := session.ParseSDP(p.pkt.Payload)
			if err != nil {
				d.ins.packetsMalformed.Inc()
				return
			}
			p.desc, p.key = desc, desc.Key()
		}
	}
	pkt := &p.pkt
	desc := p.desc
	d.ins.packetsReceived.Inc()
	now := d.cfg.Clock()
	key := p.key

	// Per-origin rate limiting covers everything a peer can make us
	// process. Dropped packets trigger no reactions at all, so they cannot
	// be amplified into defense storms either.
	if !d.admit.Allow(pkt.Origin, now) {
		d.ins.quotaDrops.Inc()
		return
	}

	if refresh != nil {
		// What the rest of this function comes to for this datagram:
		// validation passes, the cache changes nothing but LastHeard, and
		// the tracker sees the address and scope it has.
		d.ins.refreshFast.Inc()
		d.cache.Touch(refresh, now)
		d.observeClashLocked(refresh.Key(), refresh.Desc, now)
		return
	}

	if pkt.Type == sap.Delete {
		d.handleDeleteLocked(pkt, desc, key, now)
		return
	}

	if !d.validateAnnounceLocked(pkt, desc, key) {
		d.ins.forgedReports.Inc()
		return
	}
	if _, known := d.cache.Peek(key); !known && d.owned[key] == nil {
		// At degradation level 2 most unknown sessions are shed without
		// consulting the admission layer at all; the sampled survivors
		// keep stale-first eviction turning the cache over.
		if d.degradeLevel >= 2 {
			d.degradeTick++
			if d.degradeTick%degradeAdmitSample != 0 {
				d.ins.degradedLearns.Inc()
				d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceShed, Key: key})
				return
			}
		}
		// A previously unknown session must pass the budget gate before it
		// may occupy cache (and clash-tracker) state.
		if !d.admitNewLocked(desc, key, now) {
			return
		}
	}

	if e, fresh := d.cache.ObserveParsed(key, desc, p.digest, now); fresh {
		d.ins.sessionsLearned.Inc()
		d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceLearn, Key: key})
		d.emit(Event{Kind: EventSessionLearned, Key: key, Desc: desc})
		// Only fresh observations are journaled; pure LastHeard
		// refreshes ride on the next snapshot, so a recovered timestamp
		// is at most one checkpoint interval old.
		d.journalLocked(encodeLearn(e))
	}
	d.observeClashLocked(key, desc, now)
}

// unchangedLocked recognises the datagram a listener mostly hears — the
// unchanged re-announcement of a session it has cached — without parsing
// it, and returns that session's entry. The payload's digest is the digest
// of the bytes the cached description was parsed from, so the payload is
// those bytes and parsing it would yield that description again:
// validateAnnounceLocked would pass it and ObserveParsed would change
// nothing but LastHeard. Everything the digest cannot vouch for returns
// nil and is parsed: a key we own (an echo must match what we announce
// now, not what we once did), a tombstone (Unchanged finds live entries
// only), a header origin that is not the session's, a deletion, a cached
// description validation would turn away for its scope.
func (d *Directory) unchangedLocked(p *parsedPacket) *announce.Entry {
	if p.pkt.Type != sap.Announce {
		return nil
	}
	peek := p.peek[:p.peekLen]
	e, ok := d.cache.Unchanged(peek, p.digest)
	if !ok || p.pkt.Origin != e.Desc.Origin || e.Desc.TTL == 0 || d.owned[string(peek)] != nil {
		return nil
	}
	return e
}

// observeClashLocked shows the clash tracker one heard announcement and
// carries out what it answers.
func (d *Directory) observeClashLocked(key string, desc *session.Description, now time.Time) {
	if idx, ok := d.space.Index(desc.Group); ok {
		actions := d.tracker.Observe(clash.Observation{
			Key:  clash.SessionKey(key),
			Addr: idx,
			TTL:  desc.TTL,
			At:   d.ms(now),
		})
		d.applyActionsLocked(actions, now)
	}
}

// handleDeleteLocked validates and applies a SAP deletion. We have no
// authentication (out of scope, as for the paper's sdr), but a deletion
// must at least be self-consistent and must name a cached announcement
// whose recorded origin matches — that kills blind deletion spoofing,
// where an attacker withdraws a victim's session without having been able
// to observe and fully forge its announcement.
func (d *Directory) handleDeleteLocked(pkt *sap.Packet, desc *session.Description, key string, now time.Time) {
	if d.owned[key] != nil {
		// We never withdraw our own sessions via the network; any deletion
		// naming one of ours is forged.
		d.ins.forgedDeletes.Inc()
		return
	}
	e, ok := d.cache.Peek(key)
	if !ok {
		return // unknown session: nothing to delete
	}
	if pkt.Origin != desc.Origin || pkt.Origin != e.Desc.Origin {
		d.ins.forgedDeletes.Inc()
		return
	}
	d.cache.Delete(key, now)
	d.tracker.Forget(clash.SessionKey(key))
	d.journalLocked(encodeKeyDelta(deltaDelete, key))
}

// validateAnnounceLocked is the clash-report validation of the admission
// layer: an announcement (which is also how clashes are reported in the
// announce–listen model) must be self-consistent and must agree with what
// the local cache already knows before it may mutate soft state or
// trigger clash reactions. Returns false to drop the packet.
func (d *Directory) validateAnnounceLocked(pkt *sap.Packet, desc *session.Description, key string) bool {
	// The SAP header origin must match the session's claimed origin: a
	// mismatch is a forgery (third-party defenses re-announce the defended
	// session with ITS origin in both places, so they pass).
	if pkt.Origin != desc.Origin {
		return false
	}
	// Scope plausibility: a TTL-0 session could not have reached us.
	if desc.TTL == 0 {
		return false
	}
	if own, ok := d.owned[key]; ok {
		// A report about one of our own sessions must match what we are
		// actually announcing: anything else is a forged echo trying to
		// poison our own tracker state.
		return desc.Version == own.desc.Version &&
			desc.Group == own.desc.Group && desc.TTL == own.desc.TTL
	}
	e, ok := d.cache.Peek(key)
	if !ok {
		return true // new session: nothing to agree with yet
	}
	if desc.Version < e.Desc.Version {
		// Replayed stale state. The cache already ignored old versions;
		// rejecting here keeps them out of the clash tracker too, so a
		// replayer cannot re-trigger resolved clashes.
		return false
	}
	if desc.Version == e.Desc.Version {
		if e.Deleted {
			return false // a deleted version cannot be resurrected verbatim
		}
		// Same version, same content: an honest announcer bumps the
		// version on every change, so a same-version report naming a
		// different address or scope is a forged clash report.
		if desc.Group != e.Desc.Group || desc.TTL != e.Desc.TTL || desc.Name != e.Desc.Name {
			return false
		}
	}
	return true
}

// admitNewLocked runs the budget gate for a previously unknown session,
// applying any planned evictions. Returns false if the newcomer was shed
// or denied.
func (d *Directory) admitNewLocked(desc *session.Description, key string, now time.Time) bool {
	if d.cfg.MaxSessions <= 0 && d.cfg.MaxPerOrigin <= 0 {
		return true
	}
	dec := d.admit.PlanNewOrdered(d.cache, desc.Origin, now)
	for _, k := range dec.Evict {
		d.cache.Remove(k)
		d.tracker.Forget(clash.SessionKey(k))
		d.ins.evictions.Inc()
		d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceEvict, Key: k})
		d.emit(Event{Kind: EventSessionEvicted, Key: k})
		d.journalLocked(encodeKeyDelta(deltaEvict, k))
	}
	switch dec.Outcome {
	case admission.Shed:
		d.ins.shed.Inc()
		d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceShed, Key: key})
		return false
	case admission.DenyQuota:
		d.ins.quotaDrops.Inc()
		return false
	}
	return true
}

// candidatesLocked builds the admission view of the cache by scanning it,
// for the once-per-start load trim (and as the tests' reference: the
// packet path plans over the order the cache maintains). Own sessions are
// excluded: they are never eviction candidates. The order is irrelevant —
// the planners impose a total deterministic order of their own.
func (d *Directory) candidatesLocked() []admission.Candidate {
	entries := d.cache.All()
	cands := make([]admission.Candidate, 0, len(entries))
	for _, e := range entries {
		if e.Desc.Origin == d.cfg.Origin {
			continue
		}
		key := e.Desc.Key()
		if d.owned[key] != nil {
			continue
		}
		cands = append(cands, admission.Candidate{
			Key:       key,
			Origin:    e.Desc.Origin,
			TTL:       e.Desc.TTL,
			LastHeard: e.LastHeard,
			Deleted:   e.Deleted,
		})
	}
	return cands
}

// applyActionsLocked executes clash protocol reactions.
func (d *Directory) applyActionsLocked(actions []clash.Action, now time.Time) {
	// The cached tier: suppressing phase-3 defenses is a load-shedding
	// heuristic, so acting on a tier up to a second old is fine.
	degraded := d.degradeLevel >= 1
	for _, a := range actions {
		key := string(a.Key)
		switch a.Kind {
		case clash.ActionResendOwn:
			if own, ok := d.owned[key]; ok {
				if err := d.announceLocked(own, now); err == nil {
					d.ins.clashDefensesOwn.Inc()
					d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceDefendOwn, Key: key})
					d.emit(Event{Kind: EventDefendedOwn, Key: key, Desc: own.desc})
				}
			}
		case clash.ActionModifyAddress:
			own, ok := d.owned[key]
			if !ok {
				continue
			}
			addr, err := d.alloc.Allocate(d.viewLocked(), own.desc.TTL, d.rng)
			if err != nil {
				continue // space exhausted: keep the clashing address
			}
			own.desc = own.desc.WithGroup(d.space.Group(addr))
			own.announceCount = 0 // restart the fast back-off phase
			d.ownView.Put(&own.viewPos, allocator.SessionInfo{Addr: addr, TTL: own.desc.TTL})
			d.tracker.AnnounceOwn(clash.SessionKey(key), addr, own.desc.TTL, d.ms(now))
			if err := d.announceLocked(own, now); err == nil {
				d.ins.clashMoves.Inc()
				d.alloc.Moves.Inc()
				d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceClashMove, Key: key, Addr: uint32(addr)})
				d.emit(Event{Kind: EventAddressChanged, Key: key, Desc: own.desc})
			}
		case clash.ActionDefendOther:
			if degraded {
				// Level ≥ 1: shed the optional phase-3 defense; the session's
				// owner still defends its own address (phases 1 and 2 are
				// never shed).
				d.ins.degradedDefenses.Inc()
				continue
			}
			if e, ok := d.cache.Get(key); ok {
				if err := d.sendDescLocked(e.Desc, sap.Announce); err == nil {
					d.ins.clashDefensesThrd.Inc()
					d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceDefendOther, Key: key})
					d.emit(Event{Kind: EventDefendedOther, Key: key, Desc: e.Desc})
				}
			}
		}
	}
}

// Step runs all timer-driven work due at the given instant: scheduled
// re-announcements, third-party defenses, and cache expiry. Tests drive
// Step directly with a virtual clock; Run calls it periodically.
func (d *Directory) Step(now time.Time) {
	d.step(now)
	d.flush()
}

func (d *Directory) step(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	// Refresh the overload tier once per tick; the packet path reads the
	// cached value until the next recount.
	d.computeDegradeLocked(now)
	// Announce due sessions in sorted key order, not map order: packet
	// transmission order is observable (it drives receivers' clash timing
	// and any fault-injecting transport's RNG draws), so it must be
	// identical run to run for a chaos schedule to replay from its seed.
	var due []string
	for key, own := range d.owned { //mclint:maporder due keys are sorted before use
		if !own.nextAnnounce.After(now) {
			due = append(due, key)
		}
	}
	sort.Strings(due)
	for _, key := range due {
		_ = d.announceLocked(d.owned[key], now) // transient send errors retry next interval
	}
	d.applyActionsLocked(d.tracker.Due(d.ms(now)), now)
	for _, key := range d.cache.Expire(now) {
		d.tracker.Forget(clash.SessionKey(key))
		d.ins.sessionsExpired.Inc()
		d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceExpire, Key: key})
		d.emit(Event{Kind: EventSessionExpired, Key: key})
		d.journalLocked(encodeKeyDelta(deltaExpire, key))
	}
}

// Run drives Step on a real-time ticker until ctx is cancelled.
func (d *Directory) Run(ctx context.Context) error {
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
			d.Step(d.cfg.Clock())
		}
	}
}

// Close withdraws nothing (sessions live on in peers' caches until they
// expire) but stops processing. The transport is not closed; the caller
// owns it.
func (d *Directory) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
}

// registerLoadedLocked is OpenCacheStore's post-recovery bookkeeping,
// run after persisted entries have been merged into the cache. Caller
// holds d.mu.
func (d *Directory) registerLoadedLocked(now time.Time) {
	// Budget enforcement before tracker registration: a checkpoint larger
	// than MaxSessions (saved under a bigger budget, or adversarially
	// grown) must trim deterministically, not over-admit — and evicted
	// entries must never reach the clash tracker.
	if d.cfg.MaxSessions > 0 || d.cfg.MaxPerOrigin > 0 {
		for _, k := range d.admit.TrimPlan(d.candidatesLocked()) {
			d.cache.Remove(k)
			d.ins.evictions.Inc()
			d.trace.Record(obs.TraceEvent{At: d.ms(now), Kind: obs.TraceEvict, Key: k})
			d.emit(Event{Kind: EventSessionEvicted, Key: k})
			d.journalLocked(encodeKeyDelta(deltaEvict, k))
		}
	}
	// Register in sorted key order: Live() iterates a map, and Observe
	// can draw suppression delays from the RNG when loaded entries clash,
	// so registration order must be reproducible.
	live := d.cache.Live()
	keys := announce.SortByKey(live)
	for i, e := range live {
		if idx, ok := d.space.Index(e.Desc.Group); ok {
			d.tracker.Observe(clash.Observation{
				Key:  clash.SessionKey(keys[i]),
				Addr: idx,
				TTL:  e.Desc.TTL,
				At:   d.ms(now),
			})
		}
	}
}

// Metrics returns a snapshot of the directory's operational counters.
// It is now a compatibility view over the registry instruments; each
// field is read atomically, so a snapshot taken mid-packet can be
// slightly skewed across fields (it could before too, between packets).
func (d *Directory) Metrics() Metrics {
	return Metrics{
		AnnouncementsSent:   d.ins.announcementsSent.Value(),
		DeletionsSent:       d.ins.deletionsSent.Value(),
		PacketsReceived:     d.ins.packetsReceived.Value(),
		PacketsMalformed:    d.ins.packetsMalformed.Value(),
		SessionsLearned:     d.ins.sessionsLearned.Value(),
		SessionsExpired:     d.ins.sessionsExpired.Value(),
		ClashAddressChanges: d.ins.clashMoves.Value(),
		ClashDefensesOwn:    d.ins.clashDefensesOwn.Value(),
		ClashDefensesThird:  d.ins.clashDefensesThrd.Value(),
		Shed:                d.ins.shed.Value(),
		QuotaDrops:          d.ins.quotaDrops.Value(),
		ForgedReports:       d.ins.forgedReports.Value(),
		ForgedDeletes:       d.ins.forgedDeletes.Value(),
		Evictions:           d.ins.evictions.Value(),
		DegradedDefenses:    d.ins.degradedDefenses.Value(),
		DegradedLearns:      d.ins.degradedLearns.Value(),
	}
}

// computeDegradeLocked recounts the fresh cache occupancy against the
// MaxSessions budget, maps it onto the overload tiers (see the degrade
// constants; integer percent arithmetic, no floats), and caches the
// result for the per-packet path. O(cache): call from the timer and
// scrape paths only.
func (d *Directory) computeDegradeLocked(now time.Time) int {
	max := d.cfg.MaxSessions
	if max <= 0 {
		return 0
	}
	fresh := d.cache.CountFresh(now, d.staleAfter)
	lvl := 0
	switch {
	case fresh*100 >= max*degradeL2Pct && max >= degradeMinBudget:
		lvl = 2
	case fresh*100 >= max*degradeL1Pct:
		lvl = 1
	}
	d.degradeLevel = lvl
	return lvl
}

// DegradationLevel reports the current overload tier: 0 normal, 1
// phase-3 defenses suppressed, 2 listen-cache admissions sampled. Also
// exported as the shed_degradation_level gauge.
func (d *Directory) DegradationLevel() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.computeDegradeLocked(d.cfg.Clock())
}

// CacheSize returns the listened-session cache's total occupancy,
// deletion tombstones included — the quantity Config.MaxSessions bounds.
// Own sessions live outside this budget; they are locally created, never
// attacker-supplied.
func (d *Directory) CacheSize() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cache.Size()
}
