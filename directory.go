package sessiondir

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"strings"
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

// EventKind labels a protocol decision. The vocabulary is obs.TraceKind's,
// the one /trace prints; the names below alias the kinds callers outside
// the directory switch on.
type EventKind = obs.TraceKind

const (
	// EventSessionLearned: a previously unknown session (or a new version
	// of one) entered the cache.
	EventSessionLearned = obs.TraceLearn
	// EventAddressChanged: one of our sessions moved address (clash
	// phase 2).
	EventAddressChanged = obs.TraceClashMove //mclint:unused pinned by benchmark/dirscript.go
	// EventDefendedOther: we re-announced another site's session (phase 3).
	EventDefendedOther = obs.TraceDefendOther
	// EventSessionEvicted: the admission layer displaced a cached session
	// to stay inside the configured budget.
	EventSessionEvicted = obs.TraceEvict //mclint:unused pinned by benchmark/dirscript.go
)

// Event is the record of one protocol decision: the trace fields — At in
// the directory's virtual milliseconds, Kind, Key, and Addr, the address
// index for allocate, announce and clash-move (else 0) — and the session's
// description where the decision concerns one the directory holds or has
// just parsed (nil for evict and expire).
type Event struct {
	obs.TraceEvent
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
	// stops (ROADMAP item 7).
	Shards int //mclint:unused pinned by benchmark/dirscript.go
	// Seed drives the randomised choices (0 = arbitrary fixed seed).
	Seed uint64
	// OnEvent, if set, receives one Event per protocol decision — allocate,
	// announce, delete, learn, expire, clash move, both defenses, evict and
	// shed — in the order the directory made them. It runs with no
	// directory lock held — after the state change, before the datagrams
	// it announces are sent — so it may call back into the Directory.
	// Callers on several goroutines may deliver their events concurrently,
	// so the batches of two callers may interleave. A trace ring is one
	// such listener: record each event's TraceEvent into an obs.Trace.
	OnEvent func(Event)
	// Obs, when non-nil, is the registry the directory registers its
	// instruments on (nil = a private registry, reachable via Registry()).
	// One directory per registry: a second directory on the same registry
	// fails New with a duplicate-name error.
	Obs *obs.Registry
}

// Directory is a session directory agent: announcer, listener, address
// allocator and clash resolver in one. Safe for concurrent use. It is the
// protocol core behind a lock, plus the I/O: the clock, read once per
// public call, the transport, the journal store and the registry.
type Directory struct {
	core
	reg *obs.Registry

	mu     sync.Mutex
	closed bool
	// drainMu spans a flush's take of the queued effects and its journal
	// append, and a checkpoint's snapshot and discard, so two flushes
	// cannot reorder batches on their way to the journal — the on-disk
	// order is the order the core queued them in. journal is the attached
	// store (OpenCacheStore), set under both locks. Lock order: drainMu
	// before mu, never the reverse.
	drainMu sync.Mutex
	journal *CacheStore
}

// Metrics are the directory's operational counters, as exposed by sdrd.
type Metrics struct {
	// AnnouncementsSent counts announcements of our own sessions: the
	// scheduled ones, phase-1 defenses and re-announcements after a move.
	// Phase-3 defenses of others' sessions count in ClashDefensesThird.
	AnnouncementsSent   uint64
	DeletionsSent       uint64
	PacketsReceived     uint64 // well-formed SAP packets processed, rate-limited ones included
	PacketsMalformed    uint64 // undecodable packets or payloads dropped (a payload is read only within its origin's rate)
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
	ForgedDeletes uint64 // deletions whose origin did not match the cached announcement, or of an older version than it
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
	// The allocator's counters: addresses it handed out, and calls that
	// found the visible space full.
	allocPicks    *obs.Counter
	allocFailures *obs.Counter
}

// packetSizeBounds buckets received datagram sizes: SAP announcements
// cluster under 1 kB (RFC 2974's recommendation), so the low buckets are
// dense and the tail covers the UDP maximum.
var packetSizeBounds = []int64{64, 128, 256, 512, 1024, 4096, 16384, 65536}

// newDirInstruments registers the directory's counters on r. The
// allocator's are named after its display name, e.g. AIPR-1 (20% gap) →
// allocator_aipr_1_20_gap_picks_total.
func newDirInstruments(r *obs.Registry, allocName string) (dirInstruments, error) {
	var ins dirInstruments
	alloc := "allocator_" + obs.Sanitize(allocName) + "_"
	counters := []struct {
		dst        **obs.Counter
		name, help string
	}{
		{&ins.allocPicks, alloc + "picks_total", "successful address allocations by " + allocName},
		{&ins.allocFailures, alloc + "failures_total", "failed address allocations (space visibly full) by " + allocName},
		{&ins.announcementsSent, "dir_announcements_sent_total", "SAP announcements of our own sessions (scheduled, phase-1 defenses, after a move)"},
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
		{&ins.forgedDeletes, "dir_admission_forged_deletes_total", "deletions whose origin did not match the cached announcement, or of an older version than it"},
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
// never from inside the directory. None of them writes what it reads.
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
			return float64(d.DegradationLevel())
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

// flush carries out what the core queued, in the order journal → events →
// datagrams and with no lock held, so OnEvent may call back in and a
// synchronous transport's recipients may answer at once. It loops until
// nothing is left, since either may have queued more. The datagrams are
// lent to the transport for the SendBatch call, which retains nothing, so
// once it returns their buffers go back to the core.
func (d *Directory) flush() {
	var sent effects
	for first := true; ; first = false {
		fx := d.takeEffects(sent, first)
		if len(fx.events) == 0 && len(fx.dgrams) == 0 {
			return
		}
		for _, e := range fx.events {
			d.cfg.OnEvent(e)
		}
		if len(fx.dgrams) > 0 {
			// No deadline here: the transport bounds its own writes.
			_ = d.cfg.Transport.SendBatch(context.Background(), fx.dgrams) // transient errors: next interval retries
		}
		sent = fx.recycled()
	}
}

// takeEffects swaps out what the core has queued for sent, the emptied
// buffers of the last round, and hands the journal records to the
// attached store, under drainMu; the append runs outside d.mu, so disk
// latency never blocks the packet path. Every set of buffers has one
// holder at a time — the core, or the one flush that took it — also when
// a flush runs inside another's send (a synchronous transport whose
// recipients answer at once) or on another goroutine. A flush's first
// take that finds nothing queued, as after most ticks, leaves the core
// its buffers: swapping them for the flush's empty ones would drop them.
func (d *Directory) takeEffects(sent effects, first bool) effects {
	d.drainMu.Lock()
	defer d.drainMu.Unlock()
	d.mu.Lock()
	if first && len(d.fx.dgrams) == 0 && len(d.fx.events) == 0 && len(d.fx.journal) == 0 {
		d.mu.Unlock()
		return effects{}
	}
	fx := d.fx
	d.fx = sent
	j := d.journal
	d.mu.Unlock()
	if j != nil && len(fx.journal) > 0 {
		j.appendBatch(fx.journal)
	}
	return fx
}

// recentWindow is the clash protocol's "just announced" window (§3): an
// own announcement younger than this makes us the mover in a race.
const recentWindow = 30 * time.Second

// errClosed is what a closed directory answers every mutator with.
var errClosed = errors.New("sessiondir: closed")

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
	ins, err := newDirInstruments(reg, cfg.Allocator.Name())
	if err != nil {
		return nil, fmt.Errorf("sessiondir: %w", err)
	}
	d := &Directory{
		core: core{
			cfg:        cfg,
			rng:        stats.NewRNG(seed),
			owned:      make(map[string]*ownedSession),
			cache:      announce.NewCache(cfg.CacheTimeout),
			epoch:      cfg.Clock(),
			digestSeed: seed,
			reporting:  cfg.OnEvent != nil,
			ins:        ins,
		},
		reg: reg,
	}
	d.state = allocator.StateFor(cfg.Allocator)
	if d.budgeted() {
		// Without a budget nothing is ever evicted, and the listener path
		// is spared the upkeep.
		d.cache.TrackOrder(cfg.Origin)
	}
	d.budget = announce.Budget{MaxSessions: cfg.MaxSessions, MaxPerOrigin: cfg.MaxPerOrigin, StaleAfter: cfg.StaleAfter}
	if d.budget.StaleAfter <= 0 {
		d.budget.StaleAfter = d.cache.Timeout() / 4
	}
	d.admit = admission.New(admission.Config{
		OriginRate:  cfg.OriginRate,
		OriginBurst: cfg.OriginBurst,
		// An independent stream derived from the seed, not split from d.rng:
		// enabling admission must not shift the allocator's or the clash
		// tracker's draw sequences.
		RNG: stats.NewRNG(seed ^ 0xad3155_0bad),
	})
	d.tracker = clash.NewTracker(clash.TrackerConfig{
		RecentWindow: float64(recentWindow.Milliseconds()),
		Delay:        cfg.Delay,
	}, d.rng.Split())
	d.cache.TrackState(cfg.Space, d.state, d.tracker)
	if err := d.registerGauges(); err != nil {
		return nil, fmt.Errorf("sessiondir: %w", err)
	}
	cfg.Transport.Subscribe(d.HandleBatch)
	return d, nil
}

// Registry returns the directory's metrics registry — the one from
// Config.Obs, or the private registry created when none was supplied.
func (d *Directory) Registry() *obs.Registry { return d.reg }

// CreateSession allocates a multicast address for desc (overwriting
// desc.Group), registers it as owned, and announces it immediately.
// The returned description is the directory's own copy, the one it goes
// on announcing: it must not be modified. A desc with the ID of a session
// we own is refused before anything is allocated.
func (d *Directory) CreateSession(desc *session.Description) (*session.Description, error) {
	out, err := (*session.Description)(nil), errClosed
	d.mu.Lock()
	if !d.closed {
		out, err = d.create(desc, d.cfg.Clock())
	}
	d.mu.Unlock()
	d.flush()
	return out, err
}

// CreateSessionBatch creates several sessions in one pass: consecutive
// descriptions with the same scope share a single allocator.AllocateFrom,
// which sums the class counts once for the whole run (the addresses are
// bit-identical to sequential CreateSession calls; see
// allocator.Allocator.AllocateBatch). Results align
// with descs by index and, like CreateSession's, must not be modified. On
// error the sessions created before the failure stay created and are
// returned with it — callers retrying a partial burst should resubmit only
// the tail. A description CreateSession would refuse, or with the ID of
// one before it, is such a failure.
func (d *Directory) CreateSessionBatch(descs []*session.Description) ([]*session.Description, error) { //mclint:unused pinned by benchmark/dirscript.go
	out, err := []*session.Description(nil), errClosed
	d.mu.Lock()
	if !d.closed {
		out, err = d.createBatch(descs, d.cfg.Clock())
	}
	d.mu.Unlock()
	d.flush()
	return out, err
}

// WithdrawSession deletes one of our sessions, sending a SAP deletion, and
// its heard-back copy if one is cached, as hearing the deletion would. A
// closed directory withdraws nothing: its sessions live on in peers'
// caches until they expire, as after a crash.
func (d *Directory) WithdrawSession(key string) error {
	err := errClosed
	d.mu.Lock()
	if !d.closed {
		err = d.withdraw(key, d.cfg.Clock())
	}
	d.mu.Unlock()
	d.flush()
	return err
}

// Sessions returns a snapshot of all known live sessions (cached + owned),
// in key order. A heard session's description is parsed from the payload
// the cache holds, for this call and after the lock is released: the
// caller may keep it.
func (d *Directory) Sessions() []*session.Description {
	type known struct {
		key, payload string
		own          *session.Description
	}
	d.mu.Lock()
	live := d.cache.Live()
	all := make([]known, 0, len(live)+len(d.owned))
	for _, e := range live {
		if d.owned[e.Key()] == nil { // our own copy over whatever we heard of it
			all = append(all, known{key: e.Key(), payload: e.Payload()})
		}
	}
	for key, own := range d.owned {
		all = append(all, known{key: key, own: own.desc})
	}
	d.mu.Unlock()
	slices.SortFunc(all, func(a, b known) int { return strings.Compare(a.key, b.key) })
	out := make([]*session.Description, len(all))
	for i, s := range all {
		if out[i] = s.own; out[i] == nil {
			out[i] = announce.Describe(s.payload)
		}
	}
	return out
}

// OwnSessions returns the sessions this directory announces, in key order:
// its own copies, which must not be modified.
func (d *Directory) OwnSessions() []*session.Description {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*session.Description, 0, len(d.owned))
	for _, key := range slices.Sorted(maps.Keys(d.owned)) {
		out = append(out, d.owned[key].desc)
	}
	return out
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
// packets in arrival order, at one instant — refreshing, or parsing and
// applying, each in its turn — then the effects are flushed. That is what
// preserves the bit-identical replay contract: the protocol state
// transitions and RNG draws are exactly those of len(ms) batches of one.
// The datagrams are read only inside the call and nothing is kept from
// them (see parsedPacket and decodeScratch).
func (d *Directory) HandleBatch(ms []transport.Message) {
	if len(ms) == 0 {
		return
	}
	scratch := decodeScratch.Get().(*[]parsedPacket)
	if cap(*scratch) < len(ms) {
		*scratch = make([]parsedPacket, len(ms))
	}
	parsed := (*scratch)[:len(ms)]
	for i := range ms {
		parsed[i] = d.decodePacket(ms[i].Data)
	}
	d.mu.Lock()
	if !d.closed {
		now := d.cfg.Clock()
		for i := range parsed {
			d.apply(&parsed[i], now)
		}
	}
	d.mu.Unlock()
	clear(parsed)
	decodeScratch.Put(scratch)
	d.flush()
}

// decodeScratch recycles HandleBatch's decoded packets across batches and
// receivers. A slice goes back cleared, so no payload on loan and nothing
// parsed from one stays reachable from the pool.
var decodeScratch = sync.Pool{New: func() any { return new([]parsedPacket) }}

// Step runs all timer-driven work due at the given instant: scheduled
// re-announcements, third-party defenses, and cache expiry. Tests drive
// Step directly with a virtual clock; Run calls it periodically.
func (d *Directory) Step(now time.Time) {
	d.mu.Lock()
	if !d.closed {
		d.step(now)
	}
	d.mu.Unlock()
	d.flush()
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

// DegradationLevel reports the overload tier at this instant: 0 normal,
// 1 phase-3 defenses suppressed, 2 listen-cache admissions sampled. Also
// exported as the shed_degradation_level gauge. Reading it stores no
// tier — the packet path acts on the tier of the last Step — though it
// may re-arm the cache's fresh-count memo, which changes no decision.
func (d *Directory) DegradationLevel() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.degradeLevelAt(d.cfg.Clock())
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
