package sessiondir

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// The golden digests in this file were recorded at the last commit that had
// announce.Sharded (8d625ae), by running these scenarios, unchanged, against
// directories at Config.Shards 1, 4 and 8 — all three agreed on every
// digest. They are what makes the one-cache directory answer to the striped
// one's output and not to itself; a digest that moves means protocol
// behaviour moved. CHANGES.md (PR 21) says how they were taken.

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// newFloodedDirectory builds a directory like newDirectory but with an
// admission budget tight enough that scripted floods exercise eviction.
func newFloodedDirectory(t *testing.T, bus *transport.Bus, clk *fakeClock, origin string, log *eventLog) *Directory {
	t.Helper()
	const spaceSize = 128
	cfg := Config{
		Origin:       netip.MustParseAddr(origin),
		Transport:    bus.Endpoint(),
		Space:        mcast.SyntheticSpace(spaceSize),
		Allocator:    allocator.NewAdaptive(spaceSize, allocator.AdaptiveConfig{GapFraction: 0.2}),
		Clock:        clk.Now,
		Seed:         42,
		MaxSessions:  24,
		MaxPerOrigin: 10,
		StaleAfter:   2 * time.Minute,
		Delay:        clash.NewUniformDelay(1000, 1001),
	}
	if log != nil {
		cfg.OnEvent = log.add
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// shardedEventNames are the decision kinds the sharded directory reported
// as events, by the names it gave them: it recorded no allocate or shed
// event.
var shardedEventNames = map[EventKind]string{
	obs.TraceAnnounce:    "announce-sent",
	obs.TraceLearn:       "session-learned",
	obs.TraceExpire:      "session-expired",
	obs.TraceClashMove:   "address-changed",
	obs.TraceDefendOwn:   "defended-own",
	obs.TraceDefendOther: "defended-other",
	obs.TraceDelete:      "delete-sent",
	obs.TraceEvict:       "session-evicted",
}

// runShardScenario scripts a deterministic multi-agent run — three peers
// flooding announcements at an observed directory under a virtual clock,
// with deletions, malformed injections, admission pressure and an aging
// phase — and returns a replay fingerprint in three parts: the observed
// directory's full event sequence, its cached/owned session state (before
// and after aging) and its metrics snapshot.
func runShardScenario(t *testing.T) (events, sessions, metrics string) {
	t.Helper()
	bus := transport.NewBus()
	clk := newFakeClock()
	log := &eventLog{}
	obsDir := newFloodedDirectory(t, bus, clk, "10.0.0.1", log)
	defer obsDir.Close()

	var peers []*Directory
	for i := 0; i < 3; i++ {
		p, _ := newDirectory(t, bus, clk, fmt.Sprintf("10.0.0.%d", i+2), 128, uint64(i+2), nil)
		defer p.Close()
		peers = append(peers, p)
	}
	raw := bus.Endpoint()

	for round := 0; round < 12; round++ {
		for i, p := range peers {
			if _, err := p.CreateSession(testDesc(fmt.Sprintf("p%d-r%d", i, round), 127)); err != nil {
				t.Fatalf("peer %d round %d: %v", i, round, err)
			}
		}
		// A transient origin per round: announces once and goes silent, so
		// its session turns stale and becomes eviction fodder for the
		// admission planner in later rounds.
		tp, _ := newDirectory(t, bus, clk, fmt.Sprintf("10.0.9.%d", round+2), 128, uint64(200+round), nil)
		if _, err := tp.CreateSession(testDesc(fmt.Sprintf("t-r%d", round), 127)); err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			// Undecodable junk: lands in the malformed counter.
			if err := raw.SendBatch(context.Background(), oneDgram([]byte{0xff, 0x00, 0x01}, 127)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 5 {
			if _, err := obsDir.CreateSession(testDesc("own-a", 127)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 8 {
			for _, own := range obsDir.OwnSessions() {
				if err := obsDir.WithdrawSession(own.Key()); err != nil {
					t.Fatal(err)
				}
			}
		}
		now := clk.Advance(15 * time.Second)
		obsDir.Step(now)
		for _, p := range peers {
			p.Step(now)
		}
		tp.Close()
	}
	var ev, ss, ms strings.Builder
	sessionSet := func(label string) {
		var keys []string
		for _, s := range obsDir.Sessions() {
			keys = append(keys, fmt.Sprintf("%s@%s", s.Key(), s.Group))
		}
		sort.Strings(keys)
		fmt.Fprintf(&ss, "%s %v\n", label, keys)
	}
	sessionSet("sessions-before-aging")
	// Silence every announcer, then age the cache through the expiry path.
	for _, p := range peers {
		p.Close()
	}
	for i := 0; i < 4; i++ {
		obsDir.Step(clk.Advance(30 * time.Minute))
	}

	log.mu.Lock()
	for _, e := range log.events {
		if name, ok := shardedEventNames[e.Kind]; ok {
			fmt.Fprintf(&ev, "event %s %s\n", name, e.Key)
		}
	}
	log.mu.Unlock()
	sessionSet("sessions")
	for _, own := range obsDir.OwnSessions() {
		fmt.Fprintf(&ss, "own %s@%s\n", own.Key(), own.Group)
	}
	snap := obsDir.Registry().Snapshot()
	for _, mv := range snap {
		if mv.Name == "dir_refresh_fast_total" {
			// Younger than the golden below, which the sharded directory
			// recorded; how a refresh is handled is not what it pins.
			continue
		}
		if alloc, ok := strings.CutSuffix(mv.Name, "_picks_total"); ok && strings.HasPrefix(alloc, "allocator_") {
			// The sharded directory also exported its clash moves as
			// allocator_<name>_moves_total, bumped with
			// dir_clash_moves_total and sorting just before the picks.
			for _, moves := range snap {
				if moves.Name == "dir_clash_moves_total" {
					fmt.Fprintf(&ms, "metric %s_moves_total %s %v\n", alloc, moves.Kind, moves.Value)
				}
			}
		}
		fmt.Fprintf(&ms, "metric %s %s %v\n", mv.Name, mv.Kind, mv.Value)
	}
	return ev.String(), ss.String(), ms.String()
}

// The collapse's acceptance criterion: the one-cache directory replays the
// scripted scenario exactly as the sharded directory did at shard counts
// 1, 4 and 8 — same events in the same order, same cache, same metrics.
func TestShardReplayBitIdentical(t *testing.T) {
	events, sessions, metrics := runShardScenario(t)
	if !strings.Contains(events, "event session-evicted") ||
		!strings.Contains(events, "event session-expired") {
		t.Fatalf("scenario lost its teeth: no eviction/expiry pressure:\n%s", events)
	}
	for _, part := range []struct{ name, got, golden string }{
		{"event stream", events, "d119b2dd538dd06e3fed8836c3da1b9477183d54a0b3ee3be11e18853b131c70"},
		{"session sets", sessions, "43e4467738fddad462724059b82c747e57426d9d26f58ff7f4c647171d651930"},
		{"metrics", metrics, "630f97b4dea3b0abe23b45733d3b8af7ca2d7ad6552fb0eab7dc6083ee685aa2"},
	} {
		if d := digest(part.got); d != part.golden {
			t.Errorf("%s diverge from the sharded directory's: digest %s, golden %s:\n%s", part.name, d, part.golden, part.got)
		}
	}
}

// Eviction ordering under sustained admission pressure must match the
// sharded directory's exactly: who gets displaced, in what sequence.
func TestShardEvictionOrderMatchesOracle(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	log := &eventLog{}
	d := newFloodedDirectory(t, bus, clk, "10.0.0.1", log)
	defer d.Close()
	// Flood from many distinct origins.
	for i := 0; i < 60; i++ {
		p, _ := newDirectory(t, bus, clk, fmt.Sprintf("10.0.%d.%d", i/8+1, i%8+2), 128, uint64(100+i), nil)
		if _, err := p.CreateSession(testDesc(fmt.Sprintf("f%d", i), 127)); err != nil {
			t.Fatal(err)
		}
		now := clk.Advance(3 * time.Second)
		d.Step(now)
		p.Step(now)
		p.Close()
	}
	var evicted []string
	log.mu.Lock()
	for _, e := range log.events {
		if e.Kind == EventSessionEvicted {
			evicted = append(evicted, e.Key)
		}
	}
	log.mu.Unlock()
	const golden = "8ed640387fe3f752481a3b865a1ba41b33a379d8995a5541d6f0637b187d95e8"
	if got := digest(strings.Join(evicted, "\n")); len(evicted) != 18 || got != golden {
		t.Fatalf("%d evictions with digest %s; the sharded directory made 18 with %s:\n%v", len(evicted), got, golden, evicted)
	}
}

// CreateSessionBatch partial failure: when the space runs out mid-batch —
// against a view holding several origins' announcements — the sessions
// created before the failure stay created, the error surfaces, and the
// outcome is the one the sharded directory produced at any shard count.
func TestCreateSessionBatchPartialFailureAcrossShards(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	const spaceSize = 16
	d, err := New(Config{
		Origin:    netip.MustParseAddr("10.0.0.1"),
		Transport: bus.Endpoint(),
		Space:     mcast.SyntheticSpace(spaceSize),
		Allocator: allocator.NewInformedRandom(spaceSize),
		Clock:     clk.Now,
		Seed:      7,
		Delay:     clash.NewUniformDelay(1000, 1001),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Seed the cache with announcements from several origins.
	for i := 0; i < 6; i++ {
		p, _ := newDirectory(t, bus, clk, fmt.Sprintf("10.0.%d.2", i+1), spaceSize, uint64(50+i), nil)
		if _, cerr := p.CreateSession(testDesc(fmt.Sprintf("peer%d", i), 127)); cerr != nil {
			t.Fatal(cerr)
		}
		now := clk.Advance(time.Second)
		d.Step(now)
		p.Step(now)
		p.Close()
	}
	descs := make([]*session.Description, 16)
	for i := range descs {
		descs[i] = testDesc(fmt.Sprintf("b%d", i), 127)
	}
	out, berr := d.CreateSessionBatch(descs)
	if berr == nil {
		t.Fatalf("a 16-session batch into a %d-address space with peers resident should partially fail", spaceSize)
	}
	if len(out) != len(d.OwnSessions()) {
		t.Fatalf("%d returned but %d owned", len(out), len(d.OwnSessions()))
	}
	// Recorded from the sharded directory: thirteen created, at these
	// addresses of 232.1.0.0/28 in this order, over six cached peers.
	var groups []byte
	for _, c := range out {
		groups = append(groups, c.Group.As4()[3])
	}
	wantGroups := []byte{6, 7, 13, 0, 12, 15, 1, 14, 5, 11, 8, 9, 10}
	const wantErr = "sessiondir: allocate batch: allocator: no free address visible for requested scope (class 0, TTL 127, IR)"
	if string(groups) != string(wantGroups) || berr.Error() != wantErr || d.CacheSize() != 6 {
		t.Fatalf("partial batch diverges:\n got  %v %q cache=%d\n want %v %q cache=6",
			groups, berr, d.CacheSize(), wantGroups, wantErr)
	}
}

// shardAnnouncePacket marshals a valid SAP announcement from the given
// origin for the batch-ingest tests.
func shardAnnouncePacket(t *testing.T, origin string, id uint64) []byte {
	t.Helper()
	return announceWire(t, &session.Description{
		ID:      id,
		Version: 1,
		Origin:  netip.MustParseAddr(origin),
		Name:    fmt.Sprintf("batch-%s-%d", origin, id),
		Group:   netip.AddrFrom4([4]byte{224, 2, 128, byte(id)}),
		TTL:     127,
		Media:   []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
	})
}

// announceWire marshals desc as the SAP announcement its origin sends.
func announceWire(t *testing.T, desc *session.Description) []byte {
	t.Helper()
	payload, err := desc.MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	pkt := sap.Packet{
		Type:      sap.Announce,
		MsgIDHash: sap.MsgIDHashOf(payload),
		Origin:    desc.Origin,
		Payload:   payload,
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// HandleBatch (the epoch-batched ingest: parse the batch, then apply it in
// arrival order under one lock epoch) must land exactly the state that per-message delivery
// does — including the malformed counter and learned-event order.
func TestHandleBatchMatchesSequentialDelivery(t *testing.T) {
	mkDir := func(log *eventLog) *Directory {
		clk := newFakeClock()
		return newFloodedDirectory(t, transport.NewBus(), clk, "10.0.0.1", log)
	}
	var wires [][]byte
	for i := 0; i < 24; i++ {
		wires = append(wires, shardAnnouncePacket(t, fmt.Sprintf("10.0.%d.%d", i%5+1, i%3+2), uint64(i+1)))
		if i%7 == 0 {
			wires = append(wires, []byte{0xff, 0xee}) // malformed
		}
	}

	logBatch, logSeq := &eventLog{}, &eventLog{}
	batchDir, seqDir := mkDir(logBatch), mkDir(logSeq)
	defer batchDir.Close()
	defer seqDir.Close()

	ms := make([]transport.Message, len(wires))
	for i, w := range wires {
		ms[i] = transport.Message{Data: w}
	}
	batchDir.HandleBatch(ms) // one lock epoch for the lot
	for _, w := range wires {
		seqDir.HandleBatch([]transport.Message{{Data: w}}) // one per datagram
	}

	state := func(d *Directory, log *eventLog) string {
		var b strings.Builder
		log.mu.Lock()
		for _, e := range log.events {
			fmt.Fprintf(&b, "event %s %s\n", e.Kind, e.Key)
		}
		log.mu.Unlock()
		var keys []string
		for _, s := range d.Sessions() {
			keys = append(keys, s.Key())
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "sessions %v\n", keys)
		fmt.Fprintf(&b, "malformed %v\n", d.Metrics().PacketsMalformed)
		return b.String()
	}
	if got, want := state(batchDir, logBatch), state(seqDir, logSeq); got != want {
		t.Fatalf("batched ingest diverges from sequential delivery:\n--- batch\n%s\n--- sequential\n%s", got, want)
	}
}
