package sessiondir

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// forge crafts raw SAP packets on a bus endpoint — the hostile peer the
// admission layer exists to contain. It deliberately bypasses the
// Directory so every header field is attacker-controlled.
type forge struct {
	t  *testing.T
	ep *transport.BusEndpoint
}

func newForge(t *testing.T, bus *transport.Bus) *forge {
	return &forge{t: t, ep: bus.Endpoint()}
}

// send marshals and transmits a SAP packet with the given header origin.
func (f *forge) send(typ sap.MessageType, sapOrigin netip.Addr, desc *session.Description) {
	f.t.Helper()
	payload, err := desc.MarshalSDP()
	if err != nil {
		f.t.Fatal(err)
	}
	pkt := sap.Packet{
		Type:      typ,
		MsgIDHash: sap.MsgIDHashOf(payload),
		Origin:    sapOrigin,
		Payload:   payload,
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := f.ep.SendBatch(context.Background(), oneDgram(wire, desc.TTL)); err != nil {
		f.t.Fatal(err)
	}
}

// peerDesc builds an internally consistent session from a peer origin.
func peerDesc(origin string, id uint64, space mcast.AddrSpace, addr mcast.Addr, ttl mcast.TTL) *session.Description {
	return &session.Description{
		ID:      id,
		Version: 1,
		Origin:  netip.MustParseAddr(origin),
		Name:    fmt.Sprintf("peer-%s-%d", origin, id),
		Group:   space.Group(addr),
		TTL:     ttl,
		Media:   []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	}
}

func knowsKey(d *Directory, key string) bool {
	for _, s := range d.Sessions() {
		if s.Key() == key {
			return true
		}
	}
	return false
}

// TestAdmissionDeleteSpoofing: a deletion must name a cached announcement
// and carry its origin; anything else is counted and dropped, so a
// hostile peer cannot blind-delete a victim's session.
func TestAdmissionDeleteSpoofing(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	dir, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(64)

	victim := peerDesc("10.0.0.2", 7, space, 5, 127)
	f.send(sap.Announce, victim.Origin, victim)
	if !knowsKey(dir, victim.Key()) {
		t.Fatal("honest announcement not cached")
	}

	// Forged: the deleter's SAP origin is not the cached announcement's.
	f.send(sap.Delete, netip.MustParseAddr("10.0.0.66"), victim)
	if !knowsKey(dir, victim.Key()) {
		t.Fatal("spoofed deletion (wrong SAP origin) evicted the victim")
	}
	if m := dir.Metrics(); m.ForgedDeletes != 1 {
		t.Fatalf("ForgedDeletes = %d, want 1", m.ForgedDeletes)
	}

	// Forged: deletion of a session we own ourselves.
	own, err := dir.CreateSession(testDesc("mine", 127))
	if err != nil {
		t.Fatal(err)
	}
	f.send(sap.Delete, own.Origin, own)
	if len(dir.OwnSessions()) != 1 {
		t.Fatal("network deletion withdrew an owned session")
	}
	if m := dir.Metrics(); m.ForgedDeletes != 2 {
		t.Fatalf("ForgedDeletes = %d, want 2", m.ForgedDeletes)
	}

	// Deletion of an unknown session: ignored, not counted as forged.
	stranger := peerDesc("10.0.0.3", 9, space, 6, 127)
	f.send(sap.Delete, stranger.Origin, stranger)
	if m := dir.Metrics(); m.ForgedDeletes != 2 {
		t.Fatalf("unknown-session delete counted as forged: %d", m.ForgedDeletes)
	}

	// The genuine deletion still works.
	f.send(sap.Delete, victim.Origin, victim)
	if knowsKey(dir, victim.Key()) {
		t.Fatal("genuine deletion ignored")
	}
}

// TestAdmissionStaleDeleteReplay: a replayed deletion of an older version
// is counted as forged and dropped. Tombstoning the live newer version
// would make its owner's honest re-announcements read as forged
// resurrections until the tombstone expired.
func TestAdmissionStaleDeleteReplay(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	dir, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(64)

	v1 := peerDesc("10.0.0.2", 7, space, 5, 127)
	f.send(sap.Announce, v1.Origin, v1)
	f.send(sap.Delete, v1.Origin, v1)
	v2 := *v1
	v2.Version = 2
	v2.Name = "peer-10.0.0.2-7 revised"
	f.send(sap.Announce, v2.Origin, &v2)
	if !knowsKey(dir, v2.Key()) {
		t.Fatal("a new version after a deletion not cached")
	}

	f.send(sap.Delete, v1.Origin, v1) // the v1 deletion, replayed
	f.send(sap.Announce, v2.Origin, &v2)
	sessions := dir.Sessions()
	if len(sessions) != 1 || sessions[0].Version != 2 {
		t.Fatalf("after a replayed v1 deletion the cache lists %v, want v2 alone", sessions)
	}
	if m := dir.Metrics(); m.ForgedDeletes != 1 || m.ForgedReports != 0 {
		t.Fatalf("ForgedDeletes = %d, ForgedReports = %d, want 1 and 0", m.ForgedDeletes, m.ForgedReports)
	}
}

// TestAdmissionForgedReports: announcements that are internally
// inconsistent or disagree with the cache without a version bump are
// dropped and counted, and cannot poison cached state.
func TestAdmissionForgedReports(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	dir, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(64)

	honest := peerDesc("10.0.0.2", 1, space, 10, 127)
	f.send(sap.Announce, honest.Origin, honest)

	forged := 0
	check := func(what string) {
		t.Helper()
		forged++
		if m := dir.Metrics(); m.ForgedReports != uint64(forged) {
			t.Fatalf("%s: ForgedReports = %d, want %d", what, m.ForgedReports, forged)
		}
	}

	// SAP header origin != SDP origin.
	f.send(sap.Announce, netip.MustParseAddr("10.0.0.66"), honest)
	check("origin mismatch")

	// Implausible scope: a TTL-0 announcement cannot have reached us.
	zero := peerDesc("10.0.0.3", 2, space, 11, 0)
	f.send(sap.Announce, zero.Origin, zero)
	check("ttl zero")

	// Same version, mutated address: the forged clash report.
	moved := *honest
	moved.Group = space.Group(12)
	f.send(sap.Announce, moved.Origin, &moved)
	check("same-version address mutation")
	for _, s := range dir.Sessions() {
		if s.Key() == honest.Key() && s.Group != honest.Group {
			t.Fatalf("cache poisoned: %s moved to %s", s.Key(), s.Group)
		}
	}

	// Stale replay: an older version must not reach the clash tracker.
	v2 := *honest
	v2.Version = 2
	v2.Group = space.Group(13)
	f.send(sap.Announce, v2.Origin, &v2) // honest version bump, admitted
	f.send(sap.Announce, honest.Origin, honest)
	check("stale version replay")

	// A forged echo of one of our own sessions at a different address.
	own, err := dir.CreateSession(testDesc("mine", 127))
	if err != nil {
		t.Fatal(err)
	}
	echo := *own
	idx, _ := space.Index(own.Group)
	echo.Group = space.Group((idx + 1) % 64)
	f.send(sap.Announce, echo.Origin, &echo)
	check("forged own echo")
	if m := dir.Metrics(); m.ClashAddressChanges != 0 {
		t.Fatalf("forged packets forced %d address changes", m.ClashAddressChanges)
	}
}

// TestAdmissionBudgetEvictionAndShed: the cache budget evicts stale
// entries first and sheds the newcomer when everything cached is fresh.
func TestAdmissionBudgetEvictionAndShed(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	ep := bus.Endpoint()
	dir, err := New(Config{
		Origin:      netip.MustParseAddr("10.0.0.1"),
		Transport:   ep,
		Space:       mcast.SyntheticSpace(64),
		Clock:       clk.Now,
		Seed:        1,
		MaxSessions: 3,
		StaleAfter:  2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(64)

	a := peerDesc("10.0.0.2", 1, space, 1, 127)
	f.send(sap.Announce, a.Origin, a)
	clk.Advance(5 * time.Minute) // a goes stale
	b := peerDesc("10.0.0.3", 2, space, 2, 127)
	c := peerDesc("10.0.0.4", 3, space, 3, 127)
	f.send(sap.Announce, b.Origin, b)
	f.send(sap.Announce, c.Origin, c)
	if n := dir.CacheSize(); n != 3 {
		t.Fatalf("cache size %d, want 3", n)
	}

	// Budget full; a is the only stale entry, so it is evicted.
	d := peerDesc("10.0.0.5", 4, space, 4, 127)
	f.send(sap.Announce, d.Origin, d)
	if knowsKey(dir, a.Key()) {
		t.Fatal("stale entry not evicted under budget pressure")
	}
	if !knowsKey(dir, d.Key()) {
		t.Fatal("newcomer not admitted after eviction")
	}
	m := dir.Metrics()
	if m.Evictions != 1 || m.Shed != 0 {
		t.Fatalf("metrics %+v, want 1 eviction, 0 shed", m)
	}

	// Everything cached is now fresh: the next newcomer is shed.
	e := peerDesc("10.0.0.6", 5, space, 5, 127)
	f.send(sap.Announce, e.Origin, e)
	if knowsKey(dir, e.Key()) {
		t.Fatal("newcomer admitted past a budget full of fresh state")
	}
	m = dir.Metrics()
	if m.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", m.Shed)
	}
	if n := dir.CacheSize(); n > 3 {
		t.Fatalf("cache size %d exceeds budget 3", n)
	}

	// A re-announcement of an already-cached session is never shed.
	f.send(sap.Announce, d.Origin, d)
	if got := dir.Metrics().Shed; got != 1 {
		t.Fatalf("re-announcement shed: Shed = %d", got)
	}
}

// TestAdmissionPerOriginQuota: one origin cannot claim more than its
// share of cache slots, however many distinct sessions it invents.
func TestAdmissionPerOriginQuota(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	dir, err := New(Config{
		Origin:       netip.MustParseAddr("10.0.0.1"),
		Transport:    bus.Endpoint(),
		Space:        mcast.SyntheticSpace(64),
		Clock:        clk.Now,
		Seed:         1,
		MaxPerOrigin: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(64)

	for i := 0; i < 5; i++ {
		d := peerDesc("10.0.0.9", uint64(i+1), space, mcast.Addr(i), 127)
		f.send(sap.Announce, d.Origin, d)
	}
	if n := dir.CacheSize(); n != 2 {
		t.Fatalf("hostile origin cached %d sessions, quota 2", n)
	}
	if m := dir.Metrics(); m.QuotaDrops != 3 {
		t.Fatalf("QuotaDrops = %d, want 3", m.QuotaDrops)
	}
	// A different origin is unaffected.
	other := peerDesc("10.0.0.10", 1, space, 9, 127)
	f.send(sap.Announce, other.Origin, other)
	if !knowsKey(dir, other.Key()) {
		t.Fatal("innocent origin denied by another origin's quota")
	}
}

// TestOwnOriginCountsAgainstBudget: the budgets know no self. Sessions
// forged with our origin, in the SAP header and the o= line, under keys we
// do not own — a forger's, or a previous incarnation's — count against
// MaxSessions and MaxPerOrigin like any other origin's: forty of them
// leave the cache within its budget, and every one it did not take is a
// shed or a quota drop. A third party's copy of a session we do own is
// no newcomer: it meets no budget, and moves none of its counters.
func TestOwnOriginCountsAgainstBudget(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	self := netip.MustParseAddr("10.0.0.1")
	dir, err := New(Config{
		Origin:       self,
		Transport:    bus.Endpoint(),
		Space:        mcast.SyntheticSpace(64),
		Clock:        clk.Now,
		Seed:         1,
		MaxSessions:  4,
		MaxPerOrigin: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	own, err := dir.CreateSession(testDesc("ours", 127))
	if err != nil {
		t.Fatal(err)
	}
	f := newForge(t, bus)
	const forged = 40
	for i := 0; i < forged; i++ {
		d := peerDesc(self.String(), uint64(i+1), dir.cfg.Space, mcast.Addr(i%64), 127)
		f.send(sap.Announce, self, d)
	}
	n := dir.CacheSize()
	if n > 4 {
		t.Fatalf("%d sessions forged with our origin cached, budget 4", n)
	}
	before := dir.Metrics()
	if m := before; m.Shed+m.QuotaDrops != uint64(forged-n) {
		t.Fatalf("%d of %d forged sessions cached, %d shed and %d quota drops: want the other %d counted",
			n, forged, m.Shed, m.QuotaDrops, forged-n)
	}
	f.send(sap.Announce, self, own)
	if m := dir.Metrics(); m.Shed != before.Shed || m.QuotaDrops != before.QuotaDrops || m.Evictions != before.Evictions || dir.CacheSize() != n {
		t.Fatalf("a copy of our own session: shed %d → %d, quota drops %d → %d, evictions %d → %d, cache size %d → %d",
			before.Shed, m.Shed, before.QuotaDrops, m.QuotaDrops, before.Evictions, m.Evictions, n, dir.CacheSize())
	}
	if len(dir.OwnSessions()) != 1 {
		t.Fatal("the forged sessions displaced our own")
	}
	checkIndices(t, dir, self)
}

// TestAdmissionOriginRateLimit: the token bucket bounds how much
// processing one origin can demand, without touching other origins.
func TestAdmissionOriginRateLimit(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	dir, err := New(Config{
		Origin:      netip.MustParseAddr("10.0.0.1"),
		Transport:   bus.Endpoint(),
		Space:       mcast.SyntheticSpace(256),
		Clock:       clk.Now,
		Seed:        1,
		OriginRate:  1,
		OriginBurst: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(256)

	for i := 0; i < 40; i++ {
		d := peerDesc("10.0.0.9", uint64(i+1), space, mcast.Addr(i), 127)
		f.send(sap.Announce, d.Origin, d)
	}
	m := dir.Metrics()
	if m.QuotaDrops < 32 {
		t.Fatalf("QuotaDrops = %d, want >= 32 of 40 flood packets dropped", m.QuotaDrops)
	}
	if dir.CacheSize() > 8 {
		t.Fatalf("flood cached %d sessions past an 8-token burst", dir.CacheSize())
	}
	// Another origin's first packet sails through.
	other := peerDesc("10.0.0.10", 1, space, 200, 127)
	f.send(sap.Announce, other.Origin, other)
	if !knowsKey(dir, other.Key()) {
		t.Fatal("innocent origin rate-limited by the flooder's bucket")
	}
	// The bucket refills with time.
	clk.Advance(time.Minute)
	late := peerDesc("10.0.0.9", 100, space, 201, 127)
	f.send(sap.Announce, late.Origin, late)
	if !knowsKey(dir, late.Key()) {
		t.Fatal("refilled bucket still denying the origin")
	}
}

// TestAdmissionRateBeforeParse: the token bucket is charged before the
// payload is read. An origin flooding SAP-valid datagrams whose SDP does
// not parse has only its burst's worth parsed (and counted malformed); the
// rest are dropped by the rate limit unread, and counted as received and
// as quota drops. Another origin is unaffected.
func TestAdmissionRateBeforeParse(t *testing.T) {
	bus := transport.NewBus()
	clk := newFakeClock()
	dir, err := New(Config{
		Origin:      netip.MustParseAddr("10.0.0.1"),
		Transport:   bus.Endpoint(),
		Space:       mcast.SyntheticSpace(256),
		Clock:       clk.Now,
		Seed:        1,
		OriginRate:  1,
		OriginBurst: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	flooder := netip.MustParseAddr("10.0.0.9")
	payload := []byte("v=0\r\nnot sdp\r\n")
	pkt := sap.Packet{Type: sap.Announce, MsgIDHash: sap.MsgIDHashOf(payload), Origin: flooder, Payload: payload}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := bus.Endpoint()
	for i := 0; i < 40; i++ {
		if err := ep.SendBatch(context.Background(), oneDgram(wire, 127)); err != nil {
			t.Fatal(err)
		}
	}
	if m := dir.Metrics(); m.PacketsMalformed != 8 || m.QuotaDrops != 32 || m.PacketsReceived != 32 {
		t.Fatalf("40 unparseable datagrams past an 8-token burst: %d malformed, %d quota drops, %d received; want 8, 32, 32",
			m.PacketsMalformed, m.QuotaDrops, m.PacketsReceived)
	}
	other := peerDesc("10.0.0.10", 1, mcast.SyntheticSpace(256), 200, 127)
	newForge(t, bus).send(sap.Announce, other.Origin, other)
	if !knowsKey(dir, other.Key()) {
		t.Fatal("innocent origin rate-limited by the flooder's bucket")
	}
}

// TestAdmissionLoadCacheOverBudget: loading a checkpoint larger than
// MaxSessions must trim deterministically, never over-admit.
func TestAdmissionLoadCacheOverBudget(t *testing.T) {
	// Build a 10-session checkpoint via an unbounded directory.
	bus := transport.NewBus()
	clk := newFakeClock()
	donor, _ := newDirectory(t, bus, clk, "10.0.0.1", 64, 1, nil)
	f := newForge(t, bus)
	space := mcast.SyntheticSpace(64)
	for i := 0; i < 10; i++ {
		d := peerDesc(fmt.Sprintf("10.0.1.%d", i+1), uint64(i+1), space, mcast.Addr(i), 127)
		f.send(sap.Announce, d.Origin, d)
		clk.Advance(time.Second) // distinct LastHeard per entry
	}
	checkpoint := checkpointOf(t, donor)

	load := func() *Directory {
		t.Helper()
		dir, err := New(Config{
			Origin:      netip.MustParseAddr("10.0.0.99"),
			Transport:   transport.NewBus().Endpoint(),
			Space:       mcast.SyntheticSpace(64),
			Clock:       clk.Now,
			Seed:        1,
			MaxSessions: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		cs, _ := reopen(t, checkpoint, dir)
		if cs.Loaded() != 10 {
			t.Fatalf("loaded %d of the 10 checkpointed sessions before the trim", cs.Loaded())
		}
		_ = cs.Close() // load only: the checkpoint is shared and never rewritten
		return dir
	}

	d1 := load()
	if n := d1.CacheSize(); n != 4 {
		t.Fatalf("over-budget load kept %d sessions, budget 4", n)
	}
	if m := d1.Metrics(); m.Evictions != 6 {
		t.Fatalf("Evictions = %d, want 6", m.Evictions)
	}
	// The oldest entries go first: the four newest survive.
	for i := 6; i < 10; i++ {
		key := fmt.Sprintf("10.0.1.%d/%d", i+1, i+1)
		if !knowsKey(d1, key) {
			t.Fatalf("expected survivor %s evicted", key)
		}
	}
	// And the trim is deterministic: a second load keeps the same set.
	d2 := load()
	fp := func(d *Directory) []string {
		var keys []string
		for _, s := range d.Sessions() {
			keys = append(keys, s.Key())
		}
		return sortedStrings(keys)
	}
	a, b := fp(d1), fp(d2)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("trim nondeterministic:\n%v\n%v", a, b)
	}
}

func sortedStrings(s []string) []string {
	out := append([]string(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
