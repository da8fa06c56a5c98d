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

// FuzzAdmission drives the full receive path — rate limit, validation,
// budget — with attacker-shaped traffic from one hostile origin beside a
// bystander origin whose sessions go stale as the clock moves: raw fuzz
// bytes on the wire, plus announce/delete/clash-report sequences whose
// shape (session IDs, versions, groups, deletions, clock skips forward
// and back) is decoded from the fuzz input. Invariants: no panic, the cache never
// exceeds MaxSessions, owned sessions survive whatever arrives, and after
// every packet the indices kept at the cache's mutation sites plan and
// view exactly what a rebuild from a scan would, and the clash tracker
// links only the nodes checkTracker allows (checkIndices).
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

	f.Fuzz(func(t *testing.T, data []byte) {
		bus := transport.NewBus()
		clk := newFakeClock()
		dir, err := New(Config{
			Origin:       netip.MustParseAddr("10.0.0.1"),
			Transport:    bus.Endpoint(),
			Space:        mcast.SyntheticSpace(32),
			Clock:        clk.Now,
			Seed:         1,
			MaxSessions:  4,
			MaxPerOrigin: 2,
			OriginRate:   50,
			OriginBurst:  100,
			StaleAfter:   5 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
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
			switch op % 5 {
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
