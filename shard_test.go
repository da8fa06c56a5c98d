package sessiondir

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// newShardedDirectory builds a directory like newDirectory but with the
// cache striped over the given shard count and an admission budget tight
// enough that scripted floods exercise eviction.
func newShardedDirectory(t *testing.T, bus *transport.Bus, clk *fakeClock, origin string, shards int, log *eventLog) *Directory {
	t.Helper()
	const spaceSize = 128
	cfg := Config{
		Origin:       netip.MustParseAddr(origin),
		Transport:    bus.Endpoint(),
		Space:        mcast.SyntheticSpace(spaceSize),
		Allocator:    allocator.NewAdaptive(spaceSize, allocator.AdaptiveConfig{GapFraction: 0.2}),
		Clock:        clk.Now,
		Seed:         42,
		Shards:       shards,
		MaxSessions:  24,
		MaxPerOrigin: 10,
		StaleAfter:   2 * time.Minute,
		RecentWindow: 30 * time.Second,
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

// runShardScenario scripts a deterministic multi-agent run — three
// unsharded peers flooding announcements at a sharded observed directory
// under a virtual clock, with deletions, malformed injections, admission
// pressure and an aging phase — and returns a replay fingerprint: the
// observed directory's full event sequence, cached/owned session state
// and metrics snapshot.
func runShardScenario(t *testing.T, shards int) string {
	t.Helper()
	bus := transport.NewBus()
	clk := newFakeClock()
	log := &eventLog{}
	obsDir := newShardedDirectory(t, bus, clk, "10.0.0.1", shards, log)
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
			// Undecodable junk: lands in the sharded malformed counter.
			if err := raw.Send(context.Background(), []byte{0xff, 0x00, 0x01}, 127); err != nil {
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
	// Silence every announcer, then age the cache through the expiry path.
	for _, p := range peers {
		p.Close()
	}
	for i := 0; i < 4; i++ {
		obsDir.Step(clk.Advance(30 * time.Minute))
	}

	var b strings.Builder
	log.mu.Lock()
	for _, e := range log.events {
		fmt.Fprintf(&b, "event %s %s\n", e.Kind, e.Key)
	}
	log.mu.Unlock()
	var keys []string
	for _, s := range obsDir.Sessions() {
		keys = append(keys, fmt.Sprintf("%s@%s", s.Key(), s.Group))
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "sessions %v\n", keys)
	for _, own := range obsDir.OwnSessions() {
		fmt.Fprintf(&b, "own %s@%s\n", own.Key(), own.Group)
	}
	for _, mv := range obsDir.Registry().Snapshot() {
		fmt.Fprintf(&b, "metric %s %s %v\n", mv.Name, mv.Kind, mv.Value)
	}
	return b.String()
}

// The PR's acceptance criterion: sharded Directory replay is
// bit-identical to the unsharded oracle for pinned seeds at shard counts
// 1, 4 and 8 — same events in the same order, same cache, same metrics.
func TestShardReplayBitIdentical(t *testing.T) {
	oracle := runShardScenario(t, 1) // Shards<=1 is the unsharded layout
	if !strings.Contains(oracle, "event session-evicted") ||
		!strings.Contains(oracle, "event session-expired") {
		t.Fatalf("scenario lost its teeth: no eviction/expiry pressure in oracle run:\n%s", oracle)
	}
	for _, shards := range []int{4, 8} {
		got := runShardScenario(t, shards)
		if got != oracle {
			t.Fatalf("shards=%d replay diverges from unsharded oracle:\n--- sharded\n%s\n--- oracle\n%s", shards, got, oracle)
		}
	}
}

// Eviction ordering under sustained admission pressure must match the
// unsharded oracle exactly: the planners impose a total order on
// candidates, so shard-grouped candidate delivery may not reorder who
// gets displaced.
func TestShardEvictionOrderMatchesOracle(t *testing.T) {
	evictions := func(shards int) []string {
		bus := transport.NewBus()
		clk := newFakeClock()
		log := &eventLog{}
		d := newShardedDirectory(t, bus, clk, "10.0.0.1", shards, log)
		defer d.Close()
		// Flood from many distinct origins so candidates span shards.
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
		var out []string
		log.mu.Lock()
		for _, e := range log.events {
			if e.Kind == EventSessionEvicted {
				out = append(out, e.Key)
			}
		}
		log.mu.Unlock()
		return out
	}
	oracle := evictions(1)
	if len(oracle) == 0 {
		t.Fatal("flood produced no evictions; the scenario is not exercising admission")
	}
	for _, shards := range []int{4, 8} {
		if got := evictions(shards); fmt.Sprint(got) != fmt.Sprint(oracle) {
			t.Fatalf("shards=%d eviction order diverges:\n got    %v\n oracle %v", shards, got, oracle)
		}
	}
}

// Cross-shard CreateSessionBatch partial failure: when the space runs
// out mid-batch — against a view assembled from entries spread across
// shards — the sessions created before the failure stay created, the
// error surfaces, and the outcome is identical to the unsharded oracle.
func TestCreateSessionBatchPartialFailureAcrossShards(t *testing.T) {
	run := func(shards int) (created []string, errStr string, cacheLen int) {
		bus := transport.NewBus()
		clk := newFakeClock()
		const spaceSize = 16
		d, err := New(Config{
			Origin:       netip.MustParseAddr("10.0.0.1"),
			Transport:    bus.Endpoint(),
			Space:        mcast.SyntheticSpace(spaceSize),
			Allocator:    allocator.NewInformedRandom(spaceSize),
			Clock:        clk.Now,
			Seed:         7,
			Shards:       shards,
			RecentWindow: 30 * time.Second,
			Delay:        clash.NewUniformDelay(1000, 1001),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		// Seed the cache with announcements from several origins so the
		// batch's allocator view crosses shards.
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
		for _, c := range out {
			created = append(created, fmt.Sprintf("%s@%s", c.Key(), c.Group))
		}
		if berr == nil {
			t.Fatalf("shards=%d: a 16-session batch into a %d-address space with peers resident should partially fail", shards, spaceSize)
		}
		if len(out) == 0 {
			t.Fatalf("shards=%d: partial failure created nothing", shards)
		}
		if len(out) != len(d.OwnSessions()) {
			t.Fatalf("shards=%d: %d returned but %d owned", shards, len(out), len(d.OwnSessions()))
		}
		return created, berr.Error(), d.CacheSize()
	}
	wantCreated, wantErr, wantLen := run(1)
	for _, shards := range []int{4, 8} {
		gotCreated, gotErr, gotLen := run(shards)
		if fmt.Sprint(gotCreated) != fmt.Sprint(wantCreated) || gotErr != wantErr || gotLen != wantLen {
			t.Fatalf("shards=%d partial batch diverges:\n got  %v %q len=%d\n want %v %q len=%d",
				shards, gotCreated, gotErr, gotLen, wantCreated, wantErr, wantLen)
		}
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
		return newShardedDirectory(t, transport.NewBus(), clk, "10.0.0.1", 4, log)
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
