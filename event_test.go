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
			desc := e.Description()
			if wantDesc := e.Kind != obs.TraceEvict && e.Kind != obs.TraceExpire; (desc != nil) != wantDesc {
				t.Errorf("%s: %s record for %s has a description: %v, want %v", step, e.Kind, e.Key, desc != nil, wantDesc)
			} else if desc != nil && desc.Key() != e.Key {
				t.Errorf("%s: %s record for %s carries %s's description", step, e.Kind, e.Key, desc.Key())
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

// TestListenerCostsThePacketPathNothing: a directory with an OnEvent
// listener reads a datagram as one without does — ScanSDP, nothing parsed
// for the record — so learning a new session allocates as often with a
// listener as without. The listener parses, through Description: the
// learn, defend-other and shed records each answer with their own
// session's description, the shed one from a copy of a datagram that was
// on loan.
func TestListenerCostsThePacketPathNothing(t *testing.T) {
	const runs = 100
	wires := make([][]transport.Message, runs+1)
	for i := range wires {
		wires[i] = []transport.Message{{Data: announceWire(t, heardDesc(i))}}
	}
	learns := 0
	learnAllocs := func(onEvent func(Event)) float64 {
		t.Helper()
		clk := newFakeClock()
		d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: &discard{}, Clock: clk.Now, Seed: 5, OnEvent: onEvent})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			d.HandleBatch(wires[next])
			next++
		})
		if m := d.Metrics(); m.SessionsLearned != runs+1 {
			t.Fatalf("%d sessions learned, want %d", m.SessionsLearned, runs+1)
		}
		return allocs
	}
	bare := learnAllocs(nil)
	heard := learnAllocs(func(e Event) {
		if e.Kind == EventSessionLearned {
			learns++
		}
	})
	slack := 0.0
	if raceEnabled {
		slack = 1 // the pool may drop the decode slice, which is then made again
	}
	if learns != runs+1 {
		t.Fatalf("the listener heard %d learns, want %d", learns, runs+1)
	}
	if heard > bare+slack || bare > heard+slack {
		t.Errorf("learning a session allocates %v times with a listener, %v without", heard, bare)
	}

	// The records, read through Description.
	clk := newFakeClock()
	space := mcast.SyntheticSpace(16)
	log := &eventLog{}
	d, err := New(Config{
		Origin: netip.MustParseAddr("10.0.0.1"), Transport: &discard{}, Space: space, Clock: clk.Now, Seed: 3,
		MaxSessions: 3, Delay: clash.NewUniformDelay(1000, 1001), OnEvent: log.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	hear := func(desc *session.Description) {
		data := announceWire(t, desc)
		d.HandleBatch([]transport.Message{{Data: data}})
		transport.Poison(data) // the datagram was on loan for the call only
	}
	p, q := peerDesc("10.0.1.1", 1, space, 5, 127), peerDesc("10.0.1.2", 2, space, 5, 127)
	hear(p)
	clk.Advance(time.Second)
	hear(q)
	d.Step(clk.Advance(2 * time.Second)) // the suppression delay passes: p is defended
	hear(peerDesc("10.0.1.3", 3, space, 7, 127))
	shed := peerDesc("10.0.1.4", 4, space, 9, 127)
	hear(shed) // three fresh sessions fill the budget
	want := map[EventKind]int{obs.TraceLearn: 3, obs.TraceDefendOther: 1, obs.TraceShed: 1}
	for _, e := range log.events {
		if want[e.Kind] == 0 {
			t.Fatalf("a %s record for %s", e.Kind, e.Key)
		}
		want[e.Kind]--
		if e.Desc != nil {
			t.Errorf("%s record for %s carries Desc, which is for our own sessions", e.Kind, e.Key)
		}
		if desc := e.Description(); desc == nil || desc.Key() != e.Key {
			t.Errorf("%s record for %s: Description() = %v", e.Kind, e.Key, desc)
		}
	}
	for kind, n := range want {
		if n != 0 {
			t.Errorf("%d %s records missing", n, kind)
		}
	}
	if last := log.events[len(log.events)-1]; last.Kind != obs.TraceShed || last.Key != shed.Key() || last.Description().Name != shed.Name {
		t.Errorf("the last record is %s for %s, want the shed of %s", last.Kind, last.Key, shed.Key())
	}
}
