package sessiondir

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/announce"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// sentLog is a transport that keeps what its directory sends.
type sentLog struct{ sent [][]byte }

func (s *sentLog) SendBatch(_ context.Context, batch []transport.Datagram) error {
	for _, d := range batch {
		s.sent = append(s.sent, append([]byte(nil), d.Data...))
	}
	return nil
}
func (s *sentLog) Subscribe(transport.Handler) {}
func (s *sentLog) Close() error                { return nil }

// refreshSide is one of the two directories runRefreshScript drives, with
// everything it can be observed through. salt > 0 marks the side whose
// payloads each get a unique ignored line; ring, the side whose datagrams
// arrive on loan (see deliver).
type refreshSide struct {
	salt  int
	ring  [][]byte
	d     *Directory
	tx    *sentLog
	log   *eventLog
	fs    *storage.MemFS
	store *CacheStore
	// How much of each growing stream the last comparison covered.
	seenEvents, seenSent int
	// refreshedBefore is dir_refresh_fast_total summed over the directories
	// restarts have closed.
	refreshedBefore float64
}

func (s *refreshSide) open(t *testing.T, clk *fakeClock, budgets bool) {
	t.Helper()
	const spaceSize = 256
	s.tx, s.log = &sentLog{}, &eventLog{}
	s.seenEvents, s.seenSent = 0, 0
	cfg := Config{
		Origin:       netip.MustParseAddr("10.0.0.1"),
		Transport:    s.tx,
		Space:        mcast.SyntheticSpace(spaceSize),
		Allocator:    allocator.NewAdaptive(spaceSize, allocator.AdaptiveConfig{GapFraction: 0.2}),
		Clock:        clk.Now,
		Seed:         77,
		CacheTimeout: 40 * time.Minute,
		Delay:        clash.NewUniformDelay(1000, 1001),
		OnEvent:      s.log.add,
	}
	if budgets {
		cfg.MaxSessions, cfg.MaxPerOrigin, cfg.StaleAfter = 20, 6, 3*time.Minute
		cfg.OriginRate, cfg.OriginBurst = 2, 8
	}
	var err error
	if s.d, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if s.store, _, err = OpenCacheStore(s.fs, testCacheBase, s.d); err != nil {
		t.Fatal(err)
	}
	// The store appends only after its first checkpoint.
	if err := s.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// restart checkpoints, closes, and recovers the checkpoint into a new
// directory, as a restarted daemon does.
func (s *refreshSide) restart(t *testing.T, clk *fakeClock, budgets bool) {
	t.Helper()
	if err := s.store.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.store.Close(); err != nil {
		t.Fatal(err)
	}
	s.refreshedBefore += s.refreshed()
	s.d.Close()
	s.open(t, clk, budgets)
}

// wire is one datagram of the script: the SAP header fields and the
// payload before the side's salt.
type wire struct {
	typ        sap.MessageType
	origin     netip.Addr
	payload    []byte
	compressed bool
}

func (s *refreshSide) datagram(t *testing.T, w wire, n int) transport.Message {
	t.Helper()
	payload := w.payload
	if s.salt > 0 {
		// The parser ignores lines it does not know, so this side parses
		// what the other does — from bytes it has never seen before.
		payload = append(append([]byte(nil), payload...), fmt.Sprintf("x=%d-%d\r\n", s.salt, n)...)
	}
	pkt := sap.Packet{Type: w.typ, MsgIDHash: sap.MsgIDHashOf(payload), Origin: w.origin, Payload: payload}
	marshal := pkt.Marshal
	if w.compressed {
		marshal = pkt.MarshalCompressed
	}
	data, err := marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return transport.Message{Data: data}
}

// deliver hands the directory one receive batch. A side without a ring
// gets fresh slices nothing ever writes to again. A side with one gets the
// batch the way a transport lends it: in buffers that are overwritten the
// moment the receive call returns and used again for the next batch, so
// anything the directory kept from a datagram past that call is garbage by
// the time it is looked at.
func (s *refreshSide) deliver(ms []transport.Message) {
	if s.ring == nil {
		s.d.HandleBatch(ms)
		return
	}
	for i := range ms {
		s.ring[i] = append(s.ring[i][:0], ms[i].Data...)
		ms[i].Data = s.ring[i]
	}
	s.d.HandleBatch(ms)
	for i := range ms {
		transport.Poison(s.ring[i])
	}
}

func renderSessions(descs []*session.Description) string {
	lines := make([]string, 0, len(descs))
	for _, d := range descs {
		sdp, err := d.MarshalSDP()
		lines = append(lines, fmt.Sprintf("%s v%d %s/%d %v %q", d.Key(), d.Version, d.Group, d.TTL, err, sdp))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// refreshed reads the current directory's dir_refresh_fast_total.
func (s *refreshSide) refreshed() float64 {
	for _, mv := range s.d.Registry().Snapshot() {
		if mv.Name == "dir_refresh_fast_total" {
			return mv.Value
		}
	}
	return -1
}

// observe renders everything that changed since the last call, and
// everything that has a current value. With a salted twin, what only the
// salt moves is left out.
func (s *refreshSide) observe(t *testing.T, saltedTwin bool) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "sessions:\n%s\nown:\n%s\n", renderSessions(s.d.Sessions()), renderSessions(s.d.OwnSessions()))
	s.log.mu.Lock()
	for _, e := range s.log.events[s.seenEvents:] {
		fmt.Fprintf(&b, "event %+v\n", e.TraceEvent)
	}
	s.seenEvents = len(s.log.events)
	s.log.mu.Unlock()
	for _, data := range s.tx.sent[s.seenSent:] {
		fmt.Fprintf(&b, "sent %x\n", data)
	}
	s.seenSent = len(s.tx.sent)
	names, err := s.fs.List()
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := s.fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if saltedTwin && name == testCacheBase+".journal" {
			// A journal learn record holds the payload as heard, salt and
			// all: the journal is compared record by record, byte for
			// byte, with the salt line taken off the salted side's.
			fmt.Fprintf(&b, "file %s\n%s", name, s.journalRecords(t, data))
			continue
		}
		fmt.Fprintf(&b, "file %s %s\n", name, digest(string(data)))
	}
	for _, mv := range s.d.Registry().Snapshot() {
		if saltedTwin && (mv.Name == "dir_refresh_fast_total" || strings.HasPrefix(mv.Name, "dir_packet_size_bytes")) {
			continue // how refreshes were handled, and the salt's length
		}
		fmt.Fprintf(&b, "metric %s %v\n", mv.Name, mv.Value)
	}
	return b.String()
}

// journalRecords renders the records of a journal file one per line, as
// they are. On the salted side every learn record must end in the salt
// line datagram added, and that line, which nothing else on the side
// holds, is taken off before the record is rendered.
func (s *refreshSide) journalRecords(t *testing.T, journal []byte) string {
	t.Helper()
	fs := storage.NewMemFS()
	if err := fs.WriteFile(testCacheBase+".journal", journal); err != nil {
		t.Fatal(err)
	}
	salt := regexp.MustCompile(fmt.Sprintf(`\nx=%d-[0-9]+\r\n\z`, s.salt))
	var b strings.Builder
	_, rec, err := storage.Open(fs, testCacheBase, storage.OpenOptions{Replay: func(p []byte) error {
		if s.salt > 0 && len(p) > learnHeader && p[0] == deltaLearn {
			at := salt.FindIndex(p[learnHeader:])
			if at == nil {
				return fmt.Errorf("learn record %q does not end in the side's salt", p)
			}
			p = p[:learnHeader+at[0]+1]
		}
		fmt.Fprintf(&b, "record %q\n", p)
		return nil
	}})
	if err != nil || rec.Corrupt != 0 || rec.TornTails != 0 {
		t.Fatalf("reading the journal back: %v, %+v", err, rec)
	}
	return b.String()
}

// TestRefreshFastPathMatchesFullParse drives two directories with one
// seeded script. Side "as-is" receives every payload as the script wrote
// it, so re-announcements reach it byte for byte and take the refresh
// path; side "salted" receives each payload with a unique ignored line
// appended, parses the same description from it, and can never take it.
// Whatever either can be observed through — sessions, own sessions,
// decision records (kind, key, time, address), emitted datagrams, journal
// and snapshot files, metrics — must be the same after every op; the
// journal, which holds the payloads as heard, record by record and byte
// for byte once the salt line is off. The script is made of the cases the
// refresh path has to leave alone: tombstones, owned keys, forged header
// origins, rate-limited origins, edits at the same version.
func TestRefreshFastPathMatchesFullParse(t *testing.T) {
	for _, c := range []struct {
		batch   int
		budgets bool
	}{{1, false}, {1, true}, {32, false}, {32, true}} {
		t.Run(fmt.Sprintf("batch%d/budgets=%v", c.batch, c.budgets), func(t *testing.T) {
			runRefreshScript(t, 1998, c.batch, c.budgets, &refreshSide{salt: 1})
		})
	}
}

// TestDirectoryRetainsNothingFromDatagrams is the receive contract seen
// from the directory: Message.Data is valid until the receive call returns
// and not a moment longer. The same script drives twins that differ only
// in where their datagrams live — side "as-is" in fresh slices, side "on
// loan" in a ring of reused buffers poisoned after every HandleBatch. Both
// take the refresh path, both parse zero-copy out of the datagram, and if
// either kept a single byte of one — a Description string aliasing the
// payload, a payload stashed for later — the on-loan side would show it as
// 0xDB where the other shows the session. (Bus and des.Net poison their
// deliveries the same way, in batches of one.)
func TestDirectoryRetainsNothingFromDatagrams(t *testing.T) {
	for _, c := range []struct {
		batch   int
		budgets bool
	}{{1, false}, {32, false}, {32, true}} {
		t.Run(fmt.Sprintf("batch%d/budgets=%v", c.batch, c.budgets), func(t *testing.T) {
			runRefreshScript(t, 1998, c.batch, c.budgets, &refreshSide{ring: make([][]byte, 32)})
		})
	}
}

// runRefreshScript drives an as-is side and its twin — which receives the
// same datagrams salted, or on loan — through one seeded script, comparing
// everything observable after every op.
func runRefreshScript(t *testing.T, seed uint64, batch int, budgets bool, twin *refreshSide) {
	clk := newFakeClock()
	sides := []*refreshSide{{}, twin}
	salted := twin.salt > 0
	for _, s := range sides {
		s.fs = storage.NewMemFS()
		s.open(t, clk, budgets)
		defer func() { s.d.Close() }()
	}
	asIs := sides[0]
	rng := stats.NewRNG(seed)
	space := mcast.SyntheticSpace(256)

	// The peers' sessions: 6 origins with 5 sessions each. last is the
	// payload most recently announced for a key, live the script's guess
	// at whether the directories hold it (corrected from Sessions()).
	type peer struct {
		desc    *session.Description
		last    []byte
		live    bool
		deleted bool
	}
	var keys []string
	peers := map[string]*peer{}
	for i := 0; i < 30; i++ {
		d := peerDesc(fmt.Sprintf("10.2.0.%d", 1+i%6), uint64(100+i), space, mcast.Addr(10+i), 127)
		d.Info = "as first announced"
		keys = append(keys, d.Key())
		peers[d.Key()] = &peer{desc: d}
	}
	pick := func(want func(*peer) bool) *peer {
		var among []*peer
		for _, k := range keys {
			if want(peers[k]) {
				among = append(among, peers[k])
			}
		}
		if len(among) == 0 {
			return nil
		}
		return among[rng.IntN(len(among))]
	}
	sdpOf := func(d *session.Description) []byte {
		data, err := d.MarshalSDP()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	var pending []wire
	sentN, unchanged, step := 0, 0, 0
	burstHits := 0.0  // refreshes inside over-rate bursts, which unchanged does not count
	var what []string // the ops since the last comparison
	ran := map[string]int{}
	did := func(op string) {
		what = append(what, op)
		ran[op]++
	}
	flush := func() {
		t.Helper()
		for _, s := range sides {
			ms := make([]transport.Message, len(pending))
			for i, w := range pending {
				ms[i] = s.datagram(t, w, sentN+i)
			}
			s.deliver(ms)
		}
		sentN += len(pending)
		pending = pending[:0]
	}
	compare := func() {
		t.Helper()
		want := asIs.observe(t, salted)
		if got := twin.observe(t, salted); got != want {
			t.Fatalf("step %d (%s): the sides differ.\n--- as-is\n%s\n--- twin\n%s", step, strings.Join(what, ", "), want, got)
		}
		what = what[:0]
		// Evictions, expiries and sheds the script did not predict.
		held := map[string]bool{}
		for _, d := range asIs.d.Sessions() {
			held[d.Key()] = true
		}
		for _, p := range peers {
			p.live = p.live && held[p.desc.Key()]
		}
	}
	send := func(w wire) {
		t.Helper()
		pending = append(pending, w)
		if len(pending) >= batch {
			flush()
			compare()
		}
	}
	announce := func(p *peer, payload []byte) {
		p.last, p.live, p.deleted = payload, true, false
		send(wire{typ: sap.Announce, origin: p.desc.Origin, payload: payload})
	}
	reannounce := func(p *peer) {
		unchanged++
		send(wire{typ: sap.Announce, origin: p.desc.Origin, payload: p.last})
	}
	isLive := func(p *peer) bool { return p.live }

	var own, staleEcho *session.Description // our session now, and as it was before it moved
	for step = 0; step < 900; step++ {
		op := rng.IntN(100)
		switch {
		case op < 40:
			if p := pick(isLive); p != nil {
				did("unchanged re-announce")
				reannounce(p)
			}
		case op < 50:
			if p := pick(func(p *peer) bool { return !p.live && !p.deleted }); p != nil {
				did("new session")
				announce(p, sdpOf(p.desc))
			}
		case op < 57:
			if p := pick(isLive); p != nil {
				did("version bump")
				next := *p.desc
				next.Version++
				if rng.IntN(2) == 0 { // onto an address that may be taken
					next.Group = space.Group(mcast.Addr(10 + rng.IntN(30)))
				}
				p.desc = &next
				announce(p, sdpOf(p.desc))
			}
		case op < 62:
			if p := pick(isLive); p != nil {
				did("same-version edit of i=")
				next := *p.desc
				next.Info = fmt.Sprintf("edited at step %d", step)
				p.desc = &next
				announce(p, sdpOf(p.desc))
			}
		case op < 66:
			if p := pick(isLive); p != nil {
				did("delete")
				p.live, p.deleted = false, true
				send(wire{typ: sap.Delete, origin: p.desc.Origin, payload: p.last})
			}
		case op < 70:
			if p := pick(func(p *peer) bool { return p.deleted }); p != nil {
				did("verbatim replay onto a tombstone")
				send(wire{typ: sap.Announce, origin: p.desc.Origin, payload: p.last})
			}
		case op < 74:
			if p := pick(isLive); p != nil {
				did("forged header origin")
				send(wire{typ: sap.Announce, origin: netip.MustParseAddr("10.6.6.6"), payload: p.last})
			}
		case op < 78:
			if p := pick(isLive); p != nil {
				did("compressed twin")
				unchanged++
				send(wire{typ: sap.Announce, origin: p.desc.Origin, payload: p.last, compressed: true})
			}
		case op < 81:
			// The first names another session of the same origin, the
			// second — the one that counts — the session itself.
			p := pick(isLive)
			q := pick(func(q *peer) bool { return q.live && p != nil && q != p && q.desc.Origin == p.desc.Origin })
			if q != nil {
				did("two o= lines")
				decoy := fmt.Sprintf("o=- %d %d IN IP4 %s\r\n", q.desc.ID, q.desc.Version, q.desc.Origin)
				send(wire{typ: sap.Announce, origin: p.desc.Origin,
					payload: bytes.Replace(p.last, []byte("o="), []byte(decoy+"o="), 1)})
			}
		case op < 83:
			if p := pick(isLive); p != nil {
				did("over-rate origin")
				flush()
				before := asIs.refreshed()
				for i := 0; i < 12; i++ {
					send(wire{typ: sap.Announce, origin: p.desc.Origin, payload: p.last})
				}
				flush()
				burstHits += asIs.refreshed() - before // as many as the rate limit let through
			}
		case op < 85:
			did("malformed payload")
			send(wire{typ: sap.Announce, origin: netip.MustParseAddr("10.2.0.1"), payload: []byte("v=0\r\nnot sdp\r\n")})
		case op < 89:
			// Our own session, heard back at version 1; a peer announces on
			// its address while it is still recent, so we move and bump the
			// version; from then on the version-1 echo is stale.
			flush()
			if own == nil {
				did("create own session, echo, clash")
				var err error
				if own, err = asIs.d.CreateSession(testDesc("ours", 127)); err != nil {
					t.Fatal(err)
				}
				if _, err := twin.d.CreateSession(testDesc("ours", 127)); err != nil {
					t.Fatal(err)
				}
				send(wire{typ: sap.Announce, origin: own.Origin, payload: sdpOf(own)})
				squatter := peerDesc("10.2.0.9", 900+uint64(step), space, 0, own.TTL)
				squatter.Group = own.Group
				send(wire{typ: sap.Announce, origin: squatter.Origin, payload: sdpOf(squatter)})
				flush()
				// (Under a budget the squatter may have been shed instead.)
				if now := asIs.d.OwnSessions(); len(now) == 1 && now[0].Version > own.Version {
					staleEcho = own
				}
			} else if staleEcho != nil {
				did("own-session echo at a stale version")
				send(wire{typ: sap.Announce, origin: staleEcho.Origin, payload: sdpOf(staleEcho)})
				flush()
			}
			compare()
		case op < 98:
			did("clock advance + Step")
			flush()
			advance := time.Duration(1+rng.IntN(90)) * time.Second
			if rng.IntN(8) == 0 {
				advance = time.Duration(4+rng.IntN(20)) * time.Minute
			}
			now := clk.Advance(advance)
			for _, s := range sides {
				s.d.Step(now)
			}
			compare()
		default:
			did("checkpoint + restore")
			flush()
			compare()
			for _, s := range sides {
				s.restart(t, clk, budgets)
			}
			own, staleEcho = nil, nil
			compare()
			// The recovered digest is that of the record's own bytes: the
			// first re-announcement after a restart is already known.
			if p := pick(isLive); p != nil {
				before := asIs.refreshed()
				reannounce(p)
				flush()
				compare()
				if asIs.refreshed() != before+1 {
					t.Fatalf("step %d: the first re-announcement of %s after the restore was parsed", step, p.desc.Key())
				}
			}
		}
	}
	flush()
	compare()

	hits := asIs.refreshedBefore + asIs.refreshed() - burstHits
	if never := twin.refreshedBefore + twin.refreshed(); salted && never != 0 {
		t.Errorf("the salted side refreshed %v datagrams without parsing them", never)
	}
	if hits < 0.9*float64(unchanged) {
		t.Errorf("%v datagrams refreshed without a parse, of %d unchanged re-announcements: under nine in ten", hits, unchanged)
	}
	for _, op := range []string{"unchanged re-announce", "version bump", "same-version edit of i=", "delete",
		"verbatim replay onto a tombstone", "forged header origin", "compressed twin", "two o= lines", "over-rate origin",
		"own-session echo at a stale version", "clock advance + Step", "checkpoint + restore"} {
		if ran[op] == 0 {
			t.Errorf("the script never ran %q", op)
		}
	}
	t.Logf("batch %d, budgets %v: %d datagrams, %d unchanged re-announcements, %v refreshed without a parse; ops %v",
		batch, budgets, sentN, unchanged, hits, ran)
}

// TestRefreshBatchAllocations pins the refresh path at no allocation: a
// batch of 32 unchanged re-announcements decodes into a recycled slice and
// allocates nothing — with the eviction order kept (a budget set, so every
// touch fixes the heap) and without.
func TestRefreshBatchAllocations(t *testing.T) {
	want := 0.0
	if raceEnabled {
		want = 1 // the pool may drop the slice, which is then made again
	}
	for _, budget := range []int{0, 1000} {
		clk := newFakeClock()
		d, err := New(Config{
			Origin: netip.MustParseAddr("10.0.0.1"), Transport: &sentLog{}, Clock: clk.Now,
			Seed: 5, MaxSessions: budget,
		})
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]transport.Message, 32)
		for i := range ms {
			ms[i] = transport.Message{Data: announceWire(t, heardDesc(i))}
		}
		d.HandleBatch(ms) // learned here, refreshed from now on
		allocs := testing.AllocsPerRun(50, func() {
			clk.Advance(time.Second)
			d.HandleBatch(ms)
		})
		if got := d.Registry().Snapshot(); allocs > want {
			t.Errorf("budget %d: %v allocs per batch of 32 unchanged re-announcements, want <= %v", budget, allocs, want)
		} else if m := d.Metrics(); m.SessionsLearned != 32 || m.PacketsReceived != 32*52 {
			t.Errorf("budget %d: %d learned, %d received: not 51 batches of refreshes\n%v", budget, m.SessionsLearned, m.PacketsReceived, got)
		}
		d.Close()
	}
}

// TestRefreshLeavesScopeCheckToValidation: a description only a recovered
// record can put in the cache — TTL 0, which no announcement passes
// validation with — is not refreshed by its own announcement either.
func TestRefreshLeavesScopeCheckToValidation(t *testing.T) {
	clk := newFakeClock()
	d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: &sentLog{}, Clock: clk.Now, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	unscoped := heardDesc(1)
	unscoped.TTL = 0
	record := refEncodeLearn(&announce.Entry{Desc: unscoped, FirstHeard: clk.Now().Unix(), LastHeard: clk.Now()})
	if added, err := d.restore(record, clk.Now()); err != nil || !added {
		t.Fatalf("recovering the record: added %v, err %v", added, err)
	}
	d.HandleBatch([]transport.Message{{Data: announceWire(t, unscoped)}})
	if m := d.Metrics(); m.ForgedReports != 1 {
		t.Fatalf("a TTL-0 announcement of a cached TTL-0 session: %d forged reports, want 1", m.ForgedReports)
	}
}
