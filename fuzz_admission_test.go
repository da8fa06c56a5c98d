package sessiondir

import (
	"context"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// FuzzAdmission drives the full receive path — rate limit, validation,
// budget — with attacker-shaped traffic from one hostile origin beside a
// bystander origin whose sessions go stale as the clock moves: raw fuzz
// bytes on the wire, plus announce/delete/clash-report sequences whose
// shape (session IDs, versions, groups, deletions, clock skips forward
// and back) is decoded from the fuzz input, and restarts: a checkpoint
// recovered into a fresh directory under a smaller budget and quota, which
// must evict what the reference trim over the checkpoint's candidates
// does, in its order, and which the input then drives on. Invariants: no
// panic, the cache never exceeds MaxSessions, owned sessions survive
// whatever arrives, and after every packet the indices kept at the cache's
// mutation sites plan and view exactly what a rebuild from a scan would,
// and the clash tracker links only the nodes checkTracker allows
// (checkIndices).
func FuzzAdmission(f *testing.F) {
	// Seeds echo the sap decode corpus plus admission-shaped scripts.
	f.Add([]byte{})
	f.Add([]byte{0x20, 0x00, 0x12, 0x34, 10, 0, 0, 1})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08})
	f.Add([]byte("v=0\r\no=- 1 1 IN IP4 10.0.0.9\r\ns=x\r\n"))
	f.Add([]byte{0xff, 0x00, 0xff, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70})
	// Past StaleAfter and back: announce, let 400 s pass (every entry
	// stale), announce again, step back 200 s (the first ones fresh again)
	// and on — the fresh count's memo must rescan each way.
	f.Add([]byte{1, 1, 1, 1, 2, 1, 4, 200, 0, 4, 200, 0, 1, 3, 1, 4, 200, 1, 1, 4, 2, 4, 150, 0, 4, 100, 1})
	// The bystander's two sessions go stale, the hostile origin fills its
	// quota of two with fresh ones and sends a third: the planner denies it
	// from the origin's counts while stale entries of another fill the
	// cache.
	f.Add([]byte{2, 1, 1, 2, 2, 1, 4, 200, 0, 4, 200, 0, 1, 3, 1, 1, 4, 2, 1, 5, 3})
	// The owned session heard back, a hostile session at its address, and
	// a tick: the echo is the owned session's, not a second session at
	// the address.
	f.Add([]byte{3, 3, 0, 1, 0, 0, 3, 3, 0, 4, 2, 0})
	// Ways an entry stops being a member, each of which unlinks its clash
	// node in the cache; the fourth, a session heard again outside the
	// space, lies outside this harness, whose groups are all in it.
	// Expiry: the owned session heard back and a hostile session both
	// expire (15 ticks of 255 s pass the hour), and a hostile session at
	// the owned one's address (20 under this seed) meets the owned node,
	// not a forgotten one.
	f.Add([]byte{3, 3, 0, 1, 1, 1, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 4, 255, 0, 1, 3, 20})
	// A tombstone: a hostile session deleted, then heard at a new version.
	f.Add([]byte{1, 1, 1, 3, 1, 1, 4, 10, 0, 1, 1, 2})
	// An eviction: two bystander and two hostile sessions fill the budget,
	// go stale, and a new bystander session evicts the oldest.
	f.Add([]byte{2, 1, 1, 2, 2, 2, 1, 1, 3, 1, 2, 4, 4, 200, 0, 4, 200, 0, 2, 3, 6, 1, 3, 7})

	// A restart under a smaller budget: four sessions of two origins, two
	// of them stale, recovered under a budget of one and a quota of one,
	// so that each origin loses its first and then the budget the first of
	// the rest.
	f.Add([]byte{2, 1, 1, 2, 2, 2, 4, 200, 0, 4, 200, 0, 1, 1, 3, 1, 2, 4, 5, 0, 0, 1, 3, 5})

	f.Fuzz(func(t *testing.T, data []byte) {
		bus := transport.NewBus()
		clk := newFakeClock()
		open := func(ep *transport.BusEndpoint, maxSessions, maxPerOrigin int, onEvent func(Event)) *Directory {
			t.Helper()
			dir, err := New(Config{
				Origin:       netip.MustParseAddr("10.0.0.1"),
				Transport:    ep,
				Space:        mcast.SyntheticSpace(32),
				Clock:        clk.Now,
				Seed:         1,
				MaxSessions:  maxSessions,
				MaxPerOrigin: maxPerOrigin,
				OriginRate:   50,
				OriginBurst:  100,
				StaleAfter:   5 * time.Minute,
				OnEvent:      onEvent,
			})
			if err != nil {
				t.Fatal(err)
			}
			return dir
		}
		dir := open(bus.Endpoint(), 4, 2, nil)
		own, err := dir.CreateSession(testDesc("owned", 127))
		if err != nil {
			t.Fatal(err)
		}

		attacker := bus.Endpoint()
		hostile := netip.MustParseAddr("10.0.0.66")
		bystander := netip.MustParseAddr("10.0.0.77")
		space := mcast.SyntheticSpace(32)

		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			switch op % 6 {
			case 0: // raw bytes: whatever the fuzzer dreamed up
				end := i + 3 + int(a)
				if end > len(data) {
					end = len(data)
				}
				_ = attacker.SendBatch(context.Background(), oneDgram(data[i:end], 127))
			case 1, 2: // announce: id/version/group from fuzz bytes; 2 is the bystander's
				origin := hostile
				if op%5 == 2 {
					origin = bystander
				}
				desc := &session.Description{
					ID:      uint64(a % 8),
					Version: uint64(b % 4),
					Origin:  origin,
					Name:    fmt.Sprintf("h%d", a),
					Group:   space.Group(mcast.Addr(b % 32)),
					TTL:     mcast.TTL(a),
					Media:   []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
				}
				sendFuzz(attacker, sap.Announce, origin, desc)
			case 3: // delete, sometimes naming the owned session, or the owned session heard back
				if a%6 == 3 {
					sendFuzz(attacker, sap.Announce, own.Origin, own)
					break
				}
				victim := &session.Description{
					ID:      uint64(a % 8),
					Version: 1,
					Origin:  hostile,
					Name:    "del",
					Group:   space.Group(mcast.Addr(b % 32)),
					TTL:     127,
					Media:   []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
				}
				if a%3 == 0 {
					victim = own
				}
				sendFuzz(attacker, sap.Delete, hostile, victim)
			case 4: // time passes (b odd: steps back); expiry and refill paths run
				dt := time.Duration(a) * time.Second
				if b%2 == 1 {
					dt = -dt
				}
				clk.Advance(dt)
				dir.Step(clk.Now())
			case 5: // a restart from a checkpoint under a smaller budget and quota
				saved := checkpointOf(t, dir)
				dir.Close()
				// The checkpoint's candidates, recovered where nothing is trimmed.
				bare := open(transport.NewBus().Endpoint(), 0, 0, nil)
				reopen(t, saved, bare)
				cands := candidatesOf(bare)
				var evicted []string
				dir = open(bus.Endpoint(), 1+int(a%3), 1, func(e Event) {
					if e.Kind == obs.TraceEvict {
						evicted = append(evicted, e.Key)
					}
				})
				cs, _ := reopen(t, saved, dir)
				_ = cs.Close() // recovery only: the checkpoint is not rewritten
				if want := trimOf(cands, dir.budget); fmt.Sprint(evicted) != fmt.Sprint(want) {
					t.Fatalf("recovery under %+v evicted %v, the reference trim over %d candidates %v", dir.budget, evicted, len(cands), want)
				}
				// The restarted directory announces its session again, under
				// the key its heard-back copy was recovered with.
				again := testDesc("owned", 127)
				again.ID = own.ID
				if own, err = dir.CreateSession(again); err != nil {
					t.Fatal(err)
				}
			}
			// The maintained eviction order and allocator view must agree
			// with a fresh scan after whatever just arrived.
			checkIndices(t, dir, hostile, bystander)
		}

		if n := dir.CacheSize(); n > 4+1 { // +1: own session tombstoneless echo
			t.Fatalf("cache grew to %d entries past budget 4", n)
		}
		if len(dir.OwnSessions()) != 1 {
			t.Fatal("hostile traffic destroyed an owned session")
		}
		for _, s := range dir.OwnSessions() {
			if s.Key() != own.Key() {
				t.Fatalf("owned session mutated: %s", s.Key())
			}
		}
	})
}

// sendFuzz marshals and sends, swallowing marshal errors — invalid
// descriptions are themselves attacker behaviour worth exercising.
func sendFuzz(ep *transport.BusEndpoint, typ sap.MessageType, origin netip.Addr, desc *session.Description) {
	payload, err := desc.MarshalSDP()
	if err != nil {
		return
	}
	pkt := sap.Packet{
		Type:      typ,
		MsgIDHash: sap.MsgIDHashOf(payload),
		Origin:    origin,
		Payload:   payload,
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		return
	}
	_ = ep.SendBatch(context.Background(), oneDgram(wire, desc.TTL))
}
