package sessiondir

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"
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

// core is the directory's protocol state machine: the paper's soft-state
// announce–listen machine, with admission, clash resolution and expiry.
// Its inputs — decoded datagrams, creates and withdrawals, recovered
// records, ticks — each come with the instant the caller read; it reads
// no clock, takes no lock and calls no code it was handed. What it does to
// the outside world it appends to fx, in order, for the Directory to carry
// out after unlocking, its decisions among them, one record each. Obs
// counters are bumped directly: they are lock-free, draw no randomness and
// never feed back.
type core struct {
	// cfg is the resolved Config. The core reads its protocol parameters;
	// the clock, transport and event hook in it are the Directory's to call.
	cfg Config

	rng   *stats.RNG
	owned map[string]*ownedSession
	cache *announce.Cache
	// digestSeed keys sap.PayloadDigest for this directory: the resolved
	// Config.Seed, so a replay digests every payload as the recording did.
	digestSeed uint64
	// state is the allocator's view, kept current: every owned session,
	// filed where owned changes, and every live cached session inside the
	// space, which the cache files in it. A session both owned and heard
	// back is filed twice; one outside the space (a foreign block, ignored
	// as sdr does) is not filed.
	state *allocator.State
	// pick receives a single allocated address: a local array would move
	// to the heap through the allocator's interface call.
	pick    [1]mcast.Addr
	admit   *admission.Controller
	tracker *clash.Tracker
	epoch   time.Time
	nextID  uint64
	// degradeTick counts unknown-session packets seen at degradation
	// level 2; every degradeAdmitSample-th one takes the full admission
	// path so the cache keeps turning over.
	degradeTick uint64
	// degradeLevel is the tier the last tick computed; the per-packet path
	// reads it instead of rescanning the cache.
	degradeLevel int
	// budget is the cache's session budget and per-origin quota, with the
	// resolved staleness horizon: entries unheard longer are reclaimable,
	// hence not counted as degradation pressure.
	budget announce.Budget

	// journaling (a CacheStore is attached) and reporting (someone takes
	// decision records): effects nobody takes are not built.
	journaling bool
	reporting  bool
	fx         effects
	// dueBuf is step's list of owned keys due for re-announcement, kept
	// from one tick to the next: it holds at most every owned key.
	dueBuf []string
	// announceBound is a lower bound on every owned session's nextAnnounce
	// (zero: none to bound), so a step before it has nothing to re-announce
	// and skips the walk of owned. announceOwn lowers it, and each walk
	// sets it anew; a withdrawal leaves it, still a lower bound.
	announceBound time.Time

	ins dirInstruments
}

// effects is what the core has done to the outside world since the last
// flush, each list in the order the core did it. The datagrams' bytes are
// written into an arena, which each Datagram.Data slices: the transport
// borrows them for the send call, and the flush that sent them hands the
// buffers back to the core to be filled again (recycled). The arena is
// filled chunk by chunk — wire is the chunk being filled — so a burst
// copies nothing it has already written. chunks holds the arena's chunks
// of wireChunk bytes, the first used of them filled this round and the
// rest spares: a burst fills those before it allocates.
type effects struct {
	dgrams  []transport.Datagram
	wire    []byte
	chunks  [keepChunks][]byte
	used    int
	journal [][]byte
	events  []Event
}

const (
	// wireChunk is the size of an arena chunk. When the chunk being
	// filled has no room for the next datagram, sendDesc starts another
	// and leaves the full one to the datagrams that slice it.
	wireChunk = 4 << 10
	// headerRoom is at least what sap.Packet.AppendHeader writes: eight
	// bytes and the payload type.
	headerRoom = 32
	// keepChunks bounds the arena a flush hands back, 16 kB, which holds
	// about 110 announcements of 140 bytes, and keepDgrams the datagram
	// slots: append grows a slice of 32-byte datagrams through 71 to 151
	// slots on its way there. So a Step re-announcing that many sessions
	// allocates nothing. keepSlots bounds the event buffer. A burst past
	// them — a Step re-announcing a crowd, a large batch create — leaves
	// the excess to the collector rather than resident in every directory.
	keepChunks = 4
	keepDgrams = 160
	keepSlots  = 16
)

// chunk returns an empty arena chunk with room for need bytes: the next
// spare, else a new chunk, kept as a spare while fewer than keepChunks
// are. A chunk larger than wireChunk is never kept.
func (fx *effects) chunk(need int) []byte {
	if need > wireChunk {
		return make([]byte, 0, need)
	}
	if fx.used == keepChunks {
		return make([]byte, 0, wireChunk)
	}
	w := fx.chunks[fx.used]
	if w == nil {
		w = make([]byte, 0, wireChunk)
		fx.chunks[fx.used] = w
	}
	fx.used++
	return w[:0]
}

// recycled returns fx's datagram, arena and event buffers emptied for the
// core to fill again — nothing of what was sent stays reachable through
// them — or nil for any that outgrew what is kept. Every kept chunk comes
// back as a spare. The journal batch is the store's once handed over, and
// is not reused.
func (fx *effects) recycled() effects {
	return effects{
		chunks: fx.chunks,
		dgrams: emptied(fx.dgrams, keepDgrams),
		events: emptied(fx.events, keepSlots),
	}
}

// emptied returns s cleared and cut to length 0 for reuse, or nil if it
// grew past keep slots.
func emptied[T any](s []T, keep int) []T {
	if cap(s) > keep {
		return nil
	}
	clear(s)
	return s[:0]
}

type ownedSession struct {
	// desc is &first until a clash move replaces it: a created session and
	// its description are one allocation.
	desc *session.Description
	// key is desc.Key(), the key the session is owned under; hash and
	// sdpLen are the SAP message id hash and the length of desc's payload
	// once it has been sent (sdpLen > 0). desc is only ever replaced
	// (registerOwned, a clash move), never modified, so all three hold
	// until it is: a re-announcement or a deletion builds no key, measures
	// nothing and hashes nothing.
	key           string
	nextAnnounce  time.Time
	announceCount int32
	addr          mcast.Addr // desc.Group's index in the space, filed in core.state
	sdpLen        int32
	hash          uint16
	// node is the session's clash-tracker state, bound to key and linked
	// while the session is ours; an echo of it is not shown to the tracker.
	node  clash.Node
	first session.Description
}

// parsedPacket is a decoded datagram (Directory.decodePacket): the SAP
// header, the payload's digest and a guess at the session key (ok), or a
// malformed verdict (!ok, already counted). pkt.Payload aliases the
// datagram, on loan until the receive handler returns; apply reads it
// inside that call, and what it keeps of it — the cache's copy of the
// payload — aliases nothing.
type parsedPacket struct {
	pkt sap.Packet
	// digest is sap.PayloadDigest of the payload; peek[:peekLen] is what
	// session.PeekKey made of its o= line.
	digest  uint64
	peek    [40]byte
	peekLen uint8
	ok      bool
}

// ms converts a wall time to the tracker's millisecond timeline.
func (c *core) ms(t time.Time) float64 {
	return float64(t.Sub(c.epoch)) / float64(time.Millisecond)
}

// record queues the record of one protocol decision: its kind, the
// session's key, the address index where the decision picked or announced
// one (else 0) and the session's description where it has one, stamped
// with now on the tracker's millisecond timeline.
func (c *core) record(kind EventKind, key string, addr mcast.Addr, desc *session.Description, now time.Time) {
	if c.reporting {
		c.fx.events = append(c.fx.events, Event{
			TraceEvent: obs.TraceEvent{At: c.ms(now), Kind: kind, Key: key, Addr: uint32(addr)},
			Desc:       desc,
		})
	}
}

// journalLearn queues e's learn record: its payload as heard, the
// preimage of its digest, so a recovered entry knows its sender's next
// unchanged announcement.
func (c *core) journalLearn(e *announce.Entry) {
	if c.journaling {
		c.fx.journal = append(c.fx.journal, appendLearn(make([]byte, 0, learnLen(e)), e))
	}
}

// journalKey queues a delete/expire/evict record.
func (c *core) journalKey(kind byte, key string) {
	if c.journaling {
		c.fx.journal = append(c.fx.journal, encodeKeyDelta(kind, key))
	}
}

// create allocates a multicast address for desc and registers and
// announces the directory's own copy of it, unless claimable refuses it.
func (c *core) create(desc *session.Description, now time.Time) (*session.Description, error) {
	if _, err := c.claimable([]*session.Description{desc}, now); err != nil {
		return nil, err
	}
	mine := c.prepOwnCopy(desc, now)
	picked, err := c.allocate(mine.TTL, 1, c.pick[:0])
	if err != nil {
		return nil, fmt.Errorf("sessiondir: allocate: %w", err)
	}
	return c.registerOwned(mine, picked[0], now)
}

// createBatch is create over several descriptions, one allocator pass per
// run of equal TTLs (see Directory.CreateSessionBatch), up to the first
// that claimable refuses.
func (c *core) createBatch(descs []*session.Description, now time.Time) ([]*session.Description, error) {
	descs, refused := c.claimable(descs, now)
	out := make([]*session.Description, 0, len(descs))
	addrs := make([]mcast.Addr, 0, len(descs))
	for i := 0; i < len(descs); {
		// One allocator pass per same-TTL run, in input order.
		j := i
		for j < len(descs) && descs[j].TTL == descs[i].TTL {
			j++
		}
		var allocErr error
		addrs, allocErr = c.allocate(descs[i].TTL, j-i, addrs[:0])
		// Register whatever the run yielded even when it ran out mid-way:
		// sequential creates would have made exactly these before hitting
		// the same failure.
		for k, addr := range addrs {
			created, err := c.registerOwned(c.prepOwnCopy(descs[i+k], now), addr, now)
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
	return out, refused
}

// claimable returns descs up to the first whose copy create must refuse,
// its key that of a session we own or of a copy before it, and the
// refusal. It checks the IDs prepOwnCopy will give the copies, and
// moves no counter.
func (c *core) claimable(descs []*session.Description, now time.Time) ([]*session.Description, error) {
	var room [32]uint64
	ids, next := room[:0], c.nextID
	for k, desc := range descs {
		id := ownID(desc, now, &next)
		key := session.Summary{Origin: c.cfg.Origin, ID: id}
		if c.owned[key.Key()] != nil || slices.Contains(ids, id) {
			return descs[:k], fmt.Errorf("sessiondir: already our session: %s", key.Key())
		}
		ids = append(ids, id)
	}
	return descs, nil
}

// prepOwnCopy makes the directory's own copy of a description about to be
// created: deep media slice, our origin, and defaulted ID/version.
func (c *core) prepOwnCopy(desc *session.Description, now time.Time) session.Description {
	mine := *desc
	mine.Media = append([]session.Media(nil), desc.Media...)
	mine.Origin = c.cfg.Origin
	mine.ID = ownID(desc, now, &c.nextID)
	if mine.Version == 0 {
		mine.Version = 1
	}
	return mine
}

// ownID is the ID of desc's own copy: desc's, else one made from now and
// the next value of a counter, which it moves.
func ownID(desc *session.Description, now time.Time, next *uint64) uint64 {
	if desc.ID != 0 {
		return desc.ID
	}
	*next++
	return uint64(now.UnixNano())>>16 + *next
}

// registerOwned binds an allocated address to a prepared copy, registers
// it as owned, and announces it. On failure nothing is retained.
func (c *core) registerOwned(desc session.Description, addr mcast.Addr, now time.Time) (*session.Description, error) {
	desc.Group = c.cfg.Space.Group(addr)
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	key := desc.Key()
	own := &ownedSession{key: key, addr: addr, first: desc}
	own.desc = &own.first
	own.node.Bind(&own.key)
	c.owned[key] = own
	c.state.Add(addr, desc.TTL)
	c.tracker.AnnounceNode(&own.node, addr, c.ms(now))
	queued := len(c.fx.events)
	c.record(obs.TraceAllocate, key, addr, own.desc, now)
	if err := c.announceOwn(own, now); err != nil {
		c.fx.events = c.fx.events[:queued] // nothing was allocated after all
		delete(c.owned, key)
		c.state.Remove(addr, desc.TTL)
		c.tracker.ForgetNode(&own.node)
		return nil, err
	}
	// What the cache holds of a key we took over is our echo from now on.
	if e, ok := c.cache.Peek(key); ok {
		c.tracker.ForgetNode(e.Node())
	}
	return own.desc, nil
}

// allocate picks addresses for k sessions of scope ttl from the allocator
// state, appending them to dst, counted. The state is left as it was: the
// caller files what it registers. A configured allocator that is not an
// allocator.StateAllocator, such as one wrapped to count its calls, is
// handed the members the state lists for it (allocator.StateFor).
func (c *core) allocate(ttl mcast.TTL, k int, dst []mcast.Addr) ([]mcast.Addr, error) {
	got, err := allocator.AllocateFrom(c.cfg.Allocator, c.state, ttl, k, dst, c.rng)
	c.ins.allocPicks.Add(uint64(len(got) - len(dst)))
	if err != nil {
		c.ins.allocFailures.Inc()
	}
	return got, err
}

// announceOwn sends one SAP announcement for an owned session and
// schedules the next per the back-off schedule.
func (c *core) announceOwn(own *ownedSession, now time.Time) error {
	if err := c.sendOwn(own, sap.Announce); err != nil {
		return err
	}
	steady := announce.SteadyInterval(c.cache.TotalAdBytes(), announce.DefaultBandwidthBps)
	b := c.cfg.Backoff
	if b.Steady < steady {
		b.Steady = steady
	}
	own.nextAnnounce = now.Add(b.IntervalAfter(int(own.announceCount)))
	c.lowerAnnounceBound(own.nextAnnounce)
	own.announceCount++
	c.ins.announcementsSent.Inc()
	c.record(obs.TraceAnnounce, own.key, own.addr, own.desc, now)
	return nil
}

// sendOwn queues a datagram of one of our sessions, measuring and hashing
// its payload the first time own.desc goes out.
func (c *core) sendOwn(own *ownedSession, typ sap.MessageType) error {
	hash, n, err := c.sendDesc(own.desc, typ, own.hash, int(own.sdpLen))
	if err != nil {
		return err
	}
	own.hash, own.sdpLen = hash, int32(n)
	return nil
}

// sendDesc queues desc for transmission with the session's own scope
// (announcements travel exactly as far as the session's data): the SAP
// header, then the SDP payload appended behind it. sdpLen is the payload's
// length and hash its message id hash if known (sdpLen > 0); if not, the
// length is counted before the payload is written, and the hash is
// computed over the appended payload. sendDesc returns both. On error
// nothing is queued.
func (c *core) sendDesc(desc *session.Description, typ sap.MessageType, hash uint16, sdpLen int) (uint16, int, error) {
	known := sdpLen > 0
	if !known {
		sdpLen = desc.SDPLen()
	}
	w, start, err := c.startDatagram(typ, hash, desc.Origin, sdpLen)
	if err != nil {
		return 0, 0, err
	}
	body := len(w)
	if w, err = desc.AppendSDP(w); err != nil {
		return 0, 0, err
	}
	if !known {
		hash = sap.MsgIDHashOf(w[body:])
		sap.PutMsgIDHash(w[start:], hash)
	}
	c.endDatagram(w, start, desc.TTL)
	return hash, sdpLen, nil
}

// sendHeard queues an announcement of a heard session, the payload as it
// was heard, with the session's scope: a third-party defence.
func (c *core) sendHeard(e *announce.Entry) error {
	payload := e.Payload()
	w, start, err := c.startDatagram(sap.Announce, 0, e.Desc.Origin, len(payload))
	if err != nil {
		return err
	}
	body := len(w)
	w = append(w, payload...)
	sap.PutMsgIDHash(w[start:], sap.MsgIDHashOf(w[body:]))
	c.endDatagram(w, start, e.Desc.TTL)
	return nil
}

// startDatagram writes a SAP header into the effects arena, in a chunk
// with room for an sdpLen-byte payload behind it, and returns the chunk
// and where the datagram starts in it.
func (c *core) startDatagram(typ sap.MessageType, hash uint16, origin netip.Addr, sdpLen int) ([]byte, int, error) {
	w := c.fx.wire
	if need := headerRoom + sdpLen; cap(w)-len(w) < need {
		w = c.fx.chunk(need)
		c.fx.wire = w
	}
	pkt := sap.Packet{Type: typ, MsgIDHash: hash, Origin: origin}
	start := len(w)
	w, err := pkt.AppendHeader(w)
	return w, start, err
}

// endDatagram queues the datagram written into w from start on.
func (c *core) endDatagram(w []byte, start int, scope mcast.TTL) {
	c.fx.wire = w
	c.fx.dgrams = append(c.fx.dgrams, transport.Datagram{Data: w[start:len(w):len(w)], Scope: scope})
}

// withdraw deletes one of our sessions, sending a SAP deletion, and
// tombstones our heard-back copy as hearing the deletion would.
func (c *core) withdraw(key string, now time.Time) error {
	own, ok := c.owned[key]
	if !ok {
		return fmt.Errorf("sessiondir: not our session: %s", key)
	}
	delete(c.owned, key)
	c.state.Remove(own.addr, own.desc.TTL)
	c.tracker.ForgetNode(&own.node)
	if _, live := c.cache.Get(key); live {
		c.cache.Delete(key, now)
		c.journalKey(deltaDelete, key)
	}
	if err := c.sendOwn(own, sap.Delete); err != nil {
		return err
	}
	c.ins.deletionsSent.Inc()
	c.record(obs.TraceDelete, key, 0, own.desc, now)
	return nil
}

// apply is the receive path past the decode: the rate check, the parse
// (unless the payload is one the cache already holds), admission,
// validation, cache and clash-tracker mutation. Calls across a batch must
// run in arrival order.
func (c *core) apply(p *parsedPacket, now time.Time) {
	if !p.ok {
		return
	}
	// Per-origin rate limiting covers everything a peer can make us
	// process, the parse included: the origin is the SAP header's, so the
	// bucket is charged before the payload is read. Every decoded datagram
	// spends a token, an unparseable one too. Dropped packets trigger no
	// reactions at all, so they cannot be amplified into defense storms
	// either.
	if !c.admit.Allow(p.pkt.Origin, now) {
		c.ins.packetsReceived.Inc()
		c.ins.quotaDrops.Inc()
		return
	}
	// An unchanged re-announcement of a cached session is not read;
	// everything else is scanned, here, and not ahead of it: whether a
	// packet needs reading depends on what the packets before it left in
	// the cache, and one receive loop feeds this (DESIGN.md §17.1).
	if e := c.unchanged(p); e != nil {
		// What the rest of this function comes to for this datagram:
		// validation passes, the cache changes nothing but LastHeard, and
		// the tracker sees the address and scope it has.
		c.ins.packetsReceived.Inc()
		c.ins.refreshFast.Inc()
		c.cache.Touch(e, now)
		c.applyActions(c.observe(e.Node(), &e.Desc, now), now)
		return
	}
	sum, desc, err := c.scan(p.pkt.Payload)
	if err != nil {
		c.ins.packetsMalformed.Inc()
		return
	}
	c.ins.packetsReceived.Inc()
	pkt, key := &p.pkt, sum.Key()

	if pkt.Type == sap.Delete {
		c.handleDelete(pkt, &sum, key, now)
		return
	}

	if !c.validateAnnounce(pkt, &sum, key) {
		c.ins.forgedReports.Inc()
		return
	}
	if _, known := c.cache.Peek(key); !known && c.owned[key] == nil {
		// At degradation level 2 most unknown sessions are shed without
		// consulting the admission layer at all; the sampled survivors
		// keep stale-first eviction turning the cache over.
		if c.degradeLevel >= 2 {
			c.degradeTick++
			if c.degradeTick%degradeAdmitSample != 0 {
				c.ins.degradedLearns.Inc()
				c.record(obs.TraceShed, key, 0, desc, now)
				return
			}
		}
		// A previously unknown session must pass the budget gate before it
		// may occupy cache (and clash-tracker) state.
		if !c.admitNew(sum.Origin, desc, key, now) {
			return
		}
	}

	e, fresh := c.cache.ObserveHeard(key, sum, pkt.Payload, p.digest, now)
	if fresh {
		c.ins.sessionsLearned.Inc()
		c.record(obs.TraceLearn, key, 0, desc, now)
		// Only fresh observations are journaled; pure LastHeard
		// refreshes ride on the next snapshot, so a recovered timestamp
		// is at most one checkpoint interval old.
		c.journalLearn(e)
	}
	if c.owned[key] == nil { // an echo of ours was validated against own.desc
		c.applyActions(c.observe(e.Node(), &sum, now), now)
	}
}

// scan reads what the protocol needs of a payload, with ParseSDP's
// verdict. When someone takes decision records it parses the whole
// description for them, once, here; the directory keeps none of it.
func (c *core) scan(payload []byte) (session.Summary, *session.Description, error) {
	if !c.reporting {
		sum, err := session.ScanSDP(payload)
		return sum, nil, err
	}
	desc, err := session.ParseSDP(payload)
	if err != nil {
		return session.Summary{}, nil, err
	}
	return desc.Summary(), desc, nil
}

// described is e's description, parsed on demand for a decision record,
// or nil if nobody takes them.
func (c *core) described(e *announce.Entry) *session.Description {
	if !c.reporting {
		return nil
	}
	return e.Description()
}

// unchanged recognises the datagram a listener mostly hears — the
// unchanged re-announcement of a session it has cached — without reading
// it, and returns that session's entry. The payload's digest is the digest
// of the payload the entry holds, so the payload is those bytes and
// scanning it would yield the entry's summary again: validateAnnounce
// would pass it and ObserveHeard would change nothing but LastHeard.
// Everything the digest cannot vouch for returns nil and is scanned: a
// key we own (an echo must match what we announce now, not what we once
// did), a tombstone (Unchanged finds live entries only), a header origin
// that is not the session's, a deletion, a cached session validation
// would turn away for its scope.
func (c *core) unchanged(p *parsedPacket) *announce.Entry {
	if p.pkt.Type != sap.Announce {
		return nil
	}
	peek := p.peek[:p.peekLen]
	e, ok := c.cache.Unchanged(peek, p.digest)
	if !ok || p.pkt.Origin != e.Desc.Origin || e.Desc.TTL == 0 || c.owned[string(peek)] != nil {
		return nil
	}
	return e
}

// observe shows the clash tracker one heard session, not ours, whose
// tracker state is n, and returns what it answers. A session heard outside
// the space is not shown: the cache has unlinked its node (Cache.enter).
func (c *core) observe(n *clash.Node, sum *session.Summary, now time.Time) []clash.Action {
	idx, ok := c.cfg.Space.Index(sum.Group)
	if !ok {
		return nil
	}
	return c.tracker.ObserveNode(n, idx, c.ms(now))
}

// handleDelete validates and applies a SAP deletion. We have no
// authentication (out of scope, as for the paper's sdr), but a deletion
// must at least be self-consistent and must name a cached announcement
// whose recorded origin matches — that kills blind deletion spoofing,
// where an attacker withdraws a victim's session without having been able
// to observe and fully forge its announcement. It must also name the
// cached version or a later one: a replayed deletion of an older version
// would otherwise tombstone the live newer one.
func (c *core) handleDelete(pkt *sap.Packet, sum *session.Summary, key string, now time.Time) {
	if c.owned[key] != nil {
		// We never withdraw our own sessions via the network; any deletion
		// naming one of ours is forged.
		c.ins.forgedDeletes.Inc()
		return
	}
	e, ok := c.cache.Peek(key)
	if !ok {
		return // unknown session: nothing to delete
	}
	if pkt.Origin != sum.Origin || pkt.Origin != e.Desc.Origin || sum.Version < e.Desc.Version {
		c.ins.forgedDeletes.Inc()
		return
	}
	c.cache.Delete(key, now)
	c.journalKey(deltaDelete, key)
}

// validateAnnounce is the clash-report validation of the admission layer:
// an announcement (which is also how clashes are reported in the
// announce–listen model) must be self-consistent and must agree with what
// the local cache already knows before it may mutate soft state or
// trigger clash reactions. Returns false to drop the packet. sum is what
// pkt's payload was scanned to.
func (c *core) validateAnnounce(pkt *sap.Packet, sum *session.Summary, key string) bool {
	// The SAP header origin must match the session's claimed origin: a
	// mismatch is a forgery (third-party defenses re-announce the defended
	// session with ITS origin in both places, so they pass).
	if pkt.Origin != sum.Origin {
		return false
	}
	// Scope plausibility: a TTL-0 session could not have reached us.
	if sum.TTL == 0 {
		return false
	}
	if own, ok := c.owned[key]; ok {
		// A report about one of our own sessions must match what we are
		// actually announcing: anything else is a forged echo trying to
		// poison our own tracker state.
		return sum.Version == own.desc.Version &&
			sum.Group == own.desc.Group && sum.TTL == own.desc.TTL
	}
	e, ok := c.cache.Peek(key)
	if !ok {
		return true // new session: nothing to agree with yet
	}
	if sum.Version < e.Desc.Version {
		// Replayed stale state. The cache already ignored old versions;
		// rejecting here keeps them out of the clash tracker too, so a
		// replayer cannot re-trigger resolved clashes.
		return false
	}
	if sum.Version == e.Desc.Version {
		if e.Deleted {
			return false // a deleted version cannot be resurrected verbatim
		}
		// Same version, same content: an honest announcer bumps the
		// version on every change, so a same-version report naming a
		// different address or scope is a forged clash report.
		if sum.Group != e.Desc.Group || sum.TTL != e.Desc.TTL || !sameName(pkt.Payload, e) {
			return false
		}
	}
	return true
}

// sameName reports whether payload, which scanned, names its session as
// e's payload does. Only a same-version report agreeing with e on address
// and scope asks, so the two are parsed here, when it does.
func sameName(payload []byte, e *announce.Entry) bool {
	if string(payload) == e.Payload() {
		return true
	}
	d, err := session.ParseSDP(payload)
	return err == nil && d.Name == e.Description().Name
}

// budgeted reports whether a session budget is set; without one nothing
// is ever evicted.
func (c *core) budgeted() bool { return c.cfg.MaxSessions > 0 || c.cfg.MaxPerOrigin > 0 }

// admitNew runs the budget gate for a previously unknown session from
// origin, applying any planned evictions; desc is its description for the
// decision record, if one is taken. Returns false if the newcomer was
// shed or denied.
func (c *core) admitNew(origin netip.Addr, desc *session.Description, key string, now time.Time) bool {
	if !c.budgeted() {
		return true
	}
	dec := c.cache.PlanNew(c.budget, origin, now)
	for _, k := range dec.Evict {
		// The order holds no entry of our origin, so no owned session's.
		c.cache.Remove(k)
		c.evicted(k, now)
	}
	switch dec.Outcome {
	case admission.Shed:
		c.ins.shed.Inc()
		c.record(obs.TraceShed, key, 0, desc, now)
		return false
	case admission.DenyQuota:
		c.ins.quotaDrops.Inc()
		return false
	}
	return true
}

// evicted accounts for one session the admission layer displaced.
func (c *core) evicted(key string, now time.Time) {
	c.ins.evictions.Inc()
	c.record(obs.TraceEvict, key, 0, nil, now)
	c.journalKey(deltaEvict, key)
}

// applyActions executes clash protocol reactions.
func (c *core) applyActions(actions []clash.Action, now time.Time) {
	// The tier of the last tick: suppressing phase-3 defenses is a
	// load-shedding heuristic, so acting on a tier up to a second old is
	// fine.
	degraded := c.degradeLevel >= 1
	for _, a := range actions {
		key := string(a.Key)
		switch a.Kind {
		case clash.ActionResendOwn:
			if own, ok := c.owned[key]; ok {
				if err := c.announceOwn(own, now); err == nil {
					c.ins.clashDefensesOwn.Inc()
					c.record(obs.TraceDefendOwn, key, 0, own.desc, now)
				}
			}
		case clash.ActionModifyAddress:
			own, ok := c.owned[key]
			if !ok {
				continue
			}
			picked, err := c.allocate(own.desc.TTL, 1, c.pick[:0])
			if err != nil {
				continue // space exhausted: keep the clashing address
			}
			addr := picked[0]
			c.state.Remove(own.addr, own.desc.TTL)
			c.state.Add(addr, own.desc.TTL)
			own.desc = own.desc.WithGroup(c.cfg.Space.Group(addr))
			own.addr = addr
			own.sdpLen = 0        // a new payload: measured and hashed when next sent
			own.announceCount = 0 // restart the fast back-off phase
			c.tracker.AnnounceNode(&own.node, addr, c.ms(now))
			if err := c.announceOwn(own, now); err == nil {
				c.ins.clashMoves.Inc()
				c.record(obs.TraceClashMove, key, addr, own.desc, now)
			}
		case clash.ActionDefendOther:
			if degraded {
				// Level ≥ 1: shed the optional phase-3 defense; the session's
				// owner still defends its own address (phases 1 and 2 are
				// never shed).
				c.ins.degradedDefenses.Inc()
				continue
			}
			if e, ok := c.cache.Get(key); ok {
				if err := c.sendHeard(e); err == nil {
					c.ins.clashDefensesThrd.Inc()
					c.record(obs.TraceDefendOther, key, 0, c.described(e), now)
				}
			}
		}
	}
}

// step runs all timer-driven work due at now: the overload tier's
// recount, scheduled re-announcements, third-party defenses, and cache
// expiry.
func (c *core) step(now time.Time) {
	// The one place the tier is stored: the packet path reads it until the
	// next tick, and every other reader computes it without keeping it.
	c.degradeLevel = c.degradeLevelAt(now)
	// Announce due sessions in sorted key order, not map order: packet
	// transmission order is observable (it drives receivers' clash timing
	// and any fault-injecting transport's RNG draws), so it must be
	// identical run to run for a chaos schedule to replay from its seed.
	if !now.Before(c.announceBound) {
		c.announceBound = time.Time{}
		due := c.dueBuf[:0]
		for key, own := range c.owned { //mclint:maporder due keys are sorted before use, and the bound is a minimum
			if !own.nextAnnounce.After(now) {
				due = append(due, key)
			} else {
				c.lowerAnnounceBound(own.nextAnnounce)
			}
		}
		sort.Strings(due)
		for _, key := range due {
			if own := c.owned[key]; c.announceOwn(own, now) != nil {
				// A failed send leaves the session due: the next step retries.
				c.lowerAnnounceBound(own.nextAnnounce)
			}
		}
		clear(due)
		c.dueBuf = due[:0]
	}
	c.applyActions(c.tracker.Due(c.ms(now)), now)
	for _, key := range c.cache.Expire(now) {
		c.ins.sessionsExpired.Inc()
		c.record(obs.TraceExpire, key, 0, nil, now)
		c.journalKey(deltaExpire, key)
	}
}

// lowerAnnounceBound brings announceBound down to next if that is earlier.
func (c *core) lowerAnnounceBound(next time.Time) {
	if c.announceBound.IsZero() || next.Before(c.announceBound) {
		c.announceBound = next
	}
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
// The cache keeps the fresh count where it changes (announce.Cache.
// CountFresh: a memo, rescanned only when the clock passes the instant its
// earliest counted entry goes stale or steps back), so taking it is O(1) on
// most ticks. Still only the once-per-second tick (step) stores the tier,
// and the packet path reads that. Scrapes and DegradationLevel compute it
// without storing it: reading the tier must not change what the packet
// path does, and the memo a read may re-arm answers exactly as a scan.
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

// degradeLevelAt is the overload tier at now. It stores no tier; the
// cache's fresh count may re-arm its memo, which changes no answer.
func (c *core) degradeLevelAt(now time.Time) int {
	if c.cfg.MaxSessions <= 0 {
		return 0
	}
	return c.degradeLevelOf(c.cache.CountFresh(now, c.budget.StaleAfter))
}

// degradeLevelOf maps a fresh cache occupancy onto the overload tiers, in
// integer percent of MaxSessions, which must be set.
func (c *core) degradeLevelOf(fresh int) int {
	max := c.cfg.MaxSessions
	switch {
	case fresh*100 >= max*degradeL2Pct && max >= degradeMinBudget:
		return 2
	case fresh*100 >= max*degradeL1Pct:
		return 1
	}
	return 0
}

// restore replays one recovered record into the cache with Restore's merge
// semantics, reporting whether it added an entry. An undecodable record is
// an error: the store quarantines the rest of that file.
func (c *core) restore(p []byte, now time.Time) (bool, error) {
	if len(p) == 0 {
		return false, fmt.Errorf("empty cache record")
	}
	switch p[0] {
	case deltaLearn:
		if len(p) < 1+8+8+1 {
			return false, fmt.Errorf("short learn record (%d bytes)", len(p))
		}
		first := int64(binary.BigEndian.Uint64(p[1:9]))
		last := int64(binary.BigEndian.Uint64(p[9:17]))
		payload := p[learnHeader:]
		sum, err := session.ScanSDP(payload)
		if err != nil {
			return false, fmt.Errorf("learn record SDP: %w", err)
		}
		// A record holds the payload as heard, so its digest is the one the
		// entry had before the restart, whatever the sender's spelling: the
		// sender's next unchanged re-announcement is known as such.
		digest := sap.PayloadDigest(c.digestSeed, payload)
		return c.cache.Restore(sum, payload, digest, time.Unix(first, 0), time.Unix(last, 0), now), nil
	case deltaDelete:
		c.cache.Delete(string(p[1:]), now)
	case deltaExpire, deltaEvict:
		c.cache.Remove(string(p[1:]))
	default:
		return false, fmt.Errorf("unknown cache record kind %q", p[0])
	}
	return false, nil
}

// registerLoaded is recovery's bookkeeping, run after the persisted
// records have been merged into the cache.
func (c *core) registerLoaded(now time.Time) {
	// Budget enforcement before tracker registration: a checkpoint larger
	// than MaxSessions (saved under a bigger budget, or adversarially
	// grown) must trim deterministically, not over-admit — and evicted
	// entries must never reach the clash tracker.
	if c.budgeted() {
		for _, k := range c.cache.Trim(c.budget) {
			c.cache.Remove(k)
			c.evicted(k, now)
		}
	}
	// Register in sorted key order: Live() iterates a map, and Observe
	// can draw suppression delays from the RNG when loaded entries clash,
	// so registration order must be reproducible.
	live := c.cache.Live()
	announce.SortByKey(live)
	for _, e := range live {
		if c.owned[e.Key()] == nil {
			c.observe(e.Node(), &e.Desc, now) // registered, not reacted to
		}
	}
}
