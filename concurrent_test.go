package sessiondir

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// TestDirectoryConcurrentUse drives one Directory through every entry
// point at once — the type says "Safe for concurrent use", and under
// -race this is where that is checked: two receivers feeding HandleBatch,
// a Step ticker, a CreateSession/WithdrawSession caller, a scraper and a
// checkpointer. With the budgets unset nothing fed may be dropped, so the
// packet counters must account for every datagram exactly (the malformed
// counter is bumped outside d.mu by both receivers at once) and every
// well-formed session fed must be listed at the end, and recoverable from
// the checkpoints and journal records written meanwhile, each at the
// version and as the payload the live cache holds. Events are counted by
// an OnEvent that calls back into the directory, and must match the
// counters.
func TestDirectoryConcurrentUse(t *testing.T) {
	const (
		batchLen  = 32
		perFeeder = 8 * batchLen // datagrams in one feeder's script
		rounds    = 10           // times each feeder replays its script
		minIters  = 20           // least work each of the other callers does
	)
	space := mcast.SyntheticSpace(512)
	clk := newFakeClock()
	// events counts what OnEvent delivered, by kind. The callback runs with
	// no directory lock held, so it may call back in: a learned session is
	// in the cache by the time its event is delivered (nothing is evicted
	// or expires in this run).
	var events [obs.TraceDelete + 1]atomic.Uint64
	newDir := func() *Directory {
		var d *Directory
		d, err := New(Config{
			Origin:    netip.MustParseAddr("10.0.0.1"),
			Transport: transport.NewBus().Endpoint(),
			Space:     space,
			Clock:     clk.Now,
			Seed:      42,
			OnEvent: func(e Event) {
				events[e.Kind].Add(1)
				if e.Kind == EventSessionLearned && d.CacheSize() == 0 {
					t.Errorf("%s delivered for %s with the cache empty", e.Kind, e.Key)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d
	}
	d := newDir()
	fs := storage.NewMemFS()
	cs, _, err := OpenCacheStore(fs, testCacheBase, d)
	if err != nil {
		t.Fatal(err)
	}

	// Session i comes from an origin the directory has never heard of and
	// sits on address i%256, so some pairs clash and the tracker's
	// third-party defences run from Step meanwhile.
	wellFormed := func(i int) *session.Description {
		return peerDesc(fmt.Sprintf("10.1.%d.%d", i>>8, i&255), uint64(i+1), space, mcast.Addr(i%256), 127)
	}
	// One of each way parsePacket rejects a datagram: undecodable, not
	// SDP, and SDP that does not parse.
	malformed := [][]byte{{0xff, 0xee}}
	for _, pkt := range []sap.Packet{
		{PayloadType: "text/plain", Payload: []byte("hello")},
		{Payload: []byte("v=0\r\nthis is not sdp\r\n")},
	} {
		pkt.Type, pkt.Origin = sap.Announce, netip.MustParseAddr("10.9.9.9")
		wire, err := pkt.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		malformed = append(malformed, wire)
	}

	// The two scripts overlap in a third of their sessions, so both
	// receivers also race on the same keys.
	fedKeys := map[string]bool{}
	var scripts [2][][]transport.Message
	var fedMalformed uint64
	for f := range scripts {
		var ms []transport.Message
		for j := 0; j < perFeeder; j++ {
			if j%5 == 4 {
				ms = append(ms, transport.Message{Data: malformed[j%len(malformed)]})
				fedMalformed += rounds
				continue
			}
			desc := wellFormed(f*perFeeder*2/3 + j)
			fedKeys[desc.Key()] = true
			ms = append(ms, transport.Message{Data: announceWire(t, desc)})
		}
		for len(ms) > 0 {
			scripts[f] = append(scripts[f], ms[:batchLen])
			ms = ms[batchLen:]
		}
	}

	var feeders, others sync.WaitGroup
	var feedDone atomic.Bool
	start := make(chan struct{})
	for f := range scripts {
		feeders.Add(1)
		go func(batches [][]transport.Message) {
			defer feeders.Done()
			<-start
			for r := 0; r < rounds; r++ {
				for _, b := range batches {
					d.HandleBatch(b)
				}
			}
		}(scripts[f])
	}
	// Every other caller keeps going for as long as the receivers do (and
	// for minIters at least, should they finish first).
	alongside := func(body func(i int)) {
		others.Add(1)
		go func() {
			defer others.Done()
			<-start
			for i := 0; i < minIters || !feedDone.Load(); i++ {
				body(i)
			}
		}()
	}
	alongside(func(i int) {
		// Ten virtual minutes at most: nothing fed may reach CacheTimeout.
		now := clk.Now()
		if i < 600 {
			now = clk.Advance(time.Second)
		}
		d.Step(now)
	})
	alongside(func(i int) {
		own, err := d.CreateSession(testDesc(fmt.Sprintf("own-%d", i), 127))
		if err != nil {
			t.Errorf("CreateSession %d: %v", i, err)
			return
		}
		if err := d.WithdrawSession(own.Key()); err != nil {
			t.Errorf("WithdrawSession %d: %v", i, err)
		}
	})
	alongside(func(int) {
		_ = d.Sessions()
		if m := d.Metrics(); m.PacketsMalformed > fedMalformed {
			t.Errorf("PacketsMalformed %d mid-run, only %d will ever be fed", m.PacketsMalformed, fedMalformed)
		}
		// The scrape reads the cache's size while batches land: every
		// gauge must take d.mu to do it.
		for _, mv := range d.Registry().Snapshot() {
			if mv.Name == "dir_cache_sessions" && mv.Value > float64(len(fedKeys)) {
				t.Errorf("dir_cache_sessions = %v mid-run, only %d sessions will ever be fed", mv.Value, len(fedKeys))
			}
		}
	})
	alongside(func(i int) {
		if err := cs.Checkpoint(); err != nil {
			t.Errorf("Checkpoint %d: %v", i, err)
		}
	})
	close(start)
	feeders.Wait()
	feedDone.Store(true)
	others.Wait()

	fed := uint64(len(scripts) * perFeeder * rounds)
	m := d.Metrics()
	if m.PacketsReceived+m.PacketsMalformed != fed {
		t.Errorf("received %d + malformed %d = %d, fed %d datagrams",
			m.PacketsReceived, m.PacketsMalformed, m.PacketsReceived+m.PacketsMalformed, fed)
	}
	if m.PacketsMalformed != fedMalformed {
		t.Errorf("PacketsMalformed = %d, fed %d malformed datagrams", m.PacketsMalformed, fedMalformed)
	}
	// Every event was delivered exactly once by the time its callers
	// returned.
	for _, c := range []struct {
		kind    EventKind
		counter uint64
	}{
		{EventSessionLearned, m.SessionsLearned},
		{obs.TraceAnnounce, m.AnnouncementsSent},
		{obs.TraceDelete, m.DeletionsSent},
	} {
		if got := events[c.kind].Load(); got != c.counter {
			t.Errorf("%d %s events delivered, counter reads %d", got, c.kind, c.counter)
		}
	}
	missing := func(d *Directory) (n int) {
		listed := map[string]bool{}
		for _, s := range d.Sessions() {
			listed[s.Key()] = true
		}
		for key := range fedKeys {
			if !listed[key] {
				n++
			}
		}
		return n
	}
	if n := missing(d); n != 0 {
		t.Errorf("%d of %d fed sessions are not in Sessions()", n, len(fedKeys))
	}

	// What the journal and the concurrent checkpoints left on disk is the
	// whole cache too.
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	restarted := newDir()
	reopen(t, fs, restarted)
	if n := missing(restarted); n != 0 {
		t.Errorf("%d of %d fed sessions were not recovered from the store", n, len(fedKeys))
	}
	// And it is the cache itself: every session the live directory holds,
	// at the version and as the payload it holds it, and no other — the
	// records framed under the lock and checksummed outside it while the
	// other callers ran came back whole.
	cached := func(d *Directory) map[string]string {
		d.mu.Lock()
		defer d.mu.Unlock()
		out := map[string]string{}
		for _, e := range d.cache.Live() {
			out[e.Key()] = fmt.Sprintf("version %d, payload %s", e.Desc.Version, digest(e.Payload()))
		}
		return out
	}
	live, recovered := cached(d), cached(restarted)
	for key, want := range live {
		if got, ok := recovered[key]; got != want {
			t.Errorf("%s: recovered %q (present %v), the live cache holds %q", key, got, ok, want)
		}
	}
	if len(recovered) != len(live) {
		t.Errorf("%d sessions recovered, the live cache holds %d", len(recovered), len(live))
	}
}
