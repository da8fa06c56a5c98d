package sessiondir

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"sessiondir/internal/announce"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// TestOneRecordPerDecision drives one directory through every decision
// kind — allocate, announce, learn, clash move, defend own, defend other,
// shed, evict, expire and delete — and checks that OnEvent receives one
// record per decision, in decision order, stamped with the virtual
// milliseconds of the call that made it and, for allocate, announce and
// clash-move, the address index the decision picked or announced.
func TestOneRecordPerDecision(t *testing.T) {
	clk := newFakeClock()
	epoch := clk.Now()
	space := mcast.SyntheticSpace(16)
	log := &eventLog{}
	d, err := New(Config{
		Origin:    netip.MustParseAddr("10.0.0.1"),
		Transport: &sentLog{},
		Space:     space,
		Clock:     clk.Now,
		Seed:      3,
		// No scheduled re-announcement falls inside the run: every
		// announce record below is a decision the script provoked.
		Backoff:      announce.Backoff{Initial: time.Hour, Factor: 1, Steady: time.Hour},
		CacheTimeout: 10 * time.Minute,
		MaxSessions:  6,
		StaleAfter:   time.Minute,
		Delay:        clash.NewUniformDelay(1000, 1001),
		OnEvent:      log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	type rec struct {
		kind EventKind
		key  string
		at   time.Duration // since the directory's epoch
		addr mcast.Addr
	}
	seen := 0
	// expect checks the records delivered since its last call.
	expect := func(step string, want ...rec) {
		t.Helper()
		log.mu.Lock()
		got := log.events[seen:]
		seen = len(log.events)
		log.mu.Unlock()
		render := func(k EventKind, key string, at float64, addr uint32) string {
			return fmt.Sprintf("%s %s at=%v addr=%d", k, key, at, addr)
		}
		var g, w []string
		for _, e := range got {
			g = append(g, render(e.Kind, e.Key, e.At, e.Addr))
			if wantDesc := e.Kind != obs.TraceEvict && e.Kind != obs.TraceExpire; (e.Desc != nil) != wantDesc {
				t.Errorf("%s: %s record for %s has a description: %v, want %v", step, e.Kind, e.Key, e.Desc != nil, wantDesc)
			} else if e.Desc != nil && e.Desc.Key() != e.Key {
				t.Errorf("%s: %s record for %s carries %s's description", step, e.Kind, e.Key, e.Desc.Key())
			}
		}
		for _, r := range want {
			w = append(w, render(r.kind, r.key, float64(r.at)/float64(time.Millisecond), uint32(r.addr)))
		}
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: records\n%v\nwant\n%v", step, g, w)
		}
	}
	at := func() time.Duration { return clk.Now().Sub(epoch) }
	ownAddr := func() mcast.Addr {
		t.Helper()
		idx, ok := space.Index(d.OwnSessions()[0].Group)
		if !ok {
			t.Fatal("own session outside the space")
		}
		return idx
	}
	foreign := func(i int, addr mcast.Addr) *session.Description {
		return &session.Description{
			ID: uint64(100 + i), Version: 1,
			Origin: netip.AddrFrom4([4]byte{10, 0, 1, byte(i)}),
			Name:   fmt.Sprintf("foreign-%d", i),
			Group:  space.Group(addr),
			TTL:    127,
			Media:  []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
		}
	}
	hear := func(desc *session.Description) {
		d.HandleBatch([]transport.Message{{Data: announceWire(t, desc)}})
	}
	// free is an address index nothing announced so far holds.
	taken := map[mcast.Addr]bool{}
	free := func() mcast.Addr {
		for a := mcast.Addr(0); ; a++ {
			if !taken[a] && a != ownAddr() {
				taken[a] = true
				return a
			}
		}
	}

	own, err := d.CreateSession(testDesc("own", 127))
	if err != nil {
		t.Fatal(err)
	}
	first := ownAddr()
	taken[first] = true
	expect("create",
		rec{obs.TraceAllocate, own.Key(), 0, first},
		rec{obs.TraceAnnounce, own.Key(), 0, first})

	// A newcomer on our address while ours is recent: we move (phase 2).
	clk.Advance(time.Second)
	x := foreign(1, first)
	hear(x)
	moved := ownAddr()
	if moved == first {
		t.Fatal("no clash move")
	}
	expect("clash on a recent session",
		rec{obs.TraceLearn, x.Key(), at(), 0},
		rec{obs.TraceAnnounce, own.Key(), at(), moved},
		rec{obs.TraceClashMove, own.Key(), at(), moved})

	// Past the recent window, a newcomer on our address is defended
	// against (phase 1): an announcement and the defense.
	clk.Advance(39 * time.Second)
	y := foreign(2, moved)
	hear(y)
	expect("clash on a long-standing session",
		rec{obs.TraceLearn, y.Key(), at(), 0},
		rec{obs.TraceAnnounce, own.Key(), at(), moved},
		rec{obs.TraceDefendOwn, own.Key(), at(), 0})

	// Two other sites clash: after the suppression delay we defend the
	// older one (phase 3).
	clk.Advance(time.Second)
	shared := free()
	p := foreign(3, shared)
	hear(p)
	clk.Advance(time.Second)
	q := foreign(4, shared)
	hear(q)
	expect("a clash between two other sites",
		rec{obs.TraceLearn, p.Key(), at() - time.Second, 0},
		rec{obs.TraceLearn, q.Key(), at(), 0})
	d.Step(clk.Advance(2 * time.Second))
	expect("the suppression delay passes",
		rec{obs.TraceDefendOther, p.Key(), at(), 0})

	// Fill the budget with fresh sessions: the next newcomer is shed.
	clk.Advance(time.Second)
	r, s := foreign(5, free()), foreign(6, free())
	hear(r)
	hear(s)
	shed := foreign(7, free())
	hear(shed)
	expect("a full cache of fresh sessions",
		rec{obs.TraceLearn, r.Key(), at(), 0},
		rec{obs.TraceLearn, s.Key(), at(), 0},
		rec{obs.TraceShed, shed.Key(), at(), 0})

	// Once x goes stale, a newcomer evicts it.
	clk.Advance(30 * time.Second)
	u := foreign(8, free())
	hear(u)
	expect("a stale session under a full budget",
		rec{obs.TraceEvict, x.Key(), at(), 0},
		rec{obs.TraceLearn, u.Key(), at(), 0})

	// Unheard for the cache timeout, the rest expire, in key order.
	d.Step(clk.Advance(11 * time.Minute))
	var expired []rec
	for _, desc := range []*session.Description{y, p, q, r, s, u} {
		expired = append(expired, rec{obs.TraceExpire, desc.Key(), at(), 0})
	}
	expect("the cache timeout", expired...)

	if err := d.WithdrawSession(own.Key()); err != nil {
		t.Fatal(err)
	}
	expect("withdraw", rec{obs.TraceDelete, own.Key(), at(), 0})
}
