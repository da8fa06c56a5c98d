package sessiondir

import (
	"net/netip"
	"strings"
	"testing"

	"sessiondir/internal/allocator"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/transport"
)

func batchDesc(name string, ttl mcast.TTL) *session.Description {
	return &session.Description{
		Name:  name,
		TTL:   ttl,
		Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
	}
}

// TestCreateSessionBatchMatchesSequential pins the directory-level batch
// contract: with the same seed and view, CreateSessionBatch must assign
// exactly the addresses that sequential CreateSession calls would have.
func TestCreateSessionBatchMatchesSequential(t *testing.T) {
	const n = 8
	clk := newFakeClock()
	seq, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 256, 7, nil)
	defer seq.Close()
	bat, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 256, 7, nil)
	defer bat.Close()

	var wantGroups []string
	for i := 0; i < n; i++ {
		out, err := seq.CreateSession(batchDesc("s", 127))
		if err != nil {
			t.Fatalf("sequential create %d: %v", i, err)
		}
		wantGroups = append(wantGroups, out.Group.String())
	}

	descs := make([]*session.Description, n)
	for i := range descs {
		descs[i] = batchDesc("s", 127)
	}
	got, err := bat.CreateSessionBatch(descs)
	if err != nil {
		t.Fatalf("batch create: %v", err)
	}
	if len(got) != n {
		t.Fatalf("batch created %d sessions, want %d", len(got), n)
	}
	for i := range got {
		if got[i].Group.String() != wantGroups[i] {
			t.Fatalf("session %d: batch group %s, sequential group %s",
				i, got[i].Group, wantGroups[i])
		}
	}
}

// TestCreateSessionBatchMixedScopes: a batch whose TTLs change mid-way is
// split into same-scope runs; results stay aligned with the input and all
// sessions end up owned and announced.
func TestCreateSessionBatchMixedScopes(t *testing.T) {
	clk := newFakeClock()
	log := &eventLog{}
	d, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 256, 3, log)
	defer d.Close()

	ttls := []mcast.TTL{127, 127, 47, 47, 47, 127}
	descs := make([]*session.Description, len(ttls))
	for i, ttl := range ttls {
		descs[i] = batchDesc("m", ttl)
	}
	got, err := d.CreateSessionBatch(descs)
	if err != nil {
		t.Fatalf("batch create: %v", err)
	}
	if len(got) != len(ttls) {
		t.Fatalf("created %d, want %d", len(got), len(ttls))
	}
	seen := map[string]bool{}
	for i, out := range got {
		if out.TTL != ttls[i] {
			t.Fatalf("result %d has TTL %d, want %d (alignment broken)", i, out.TTL, ttls[i])
		}
		if seen[out.Group.String()] {
			t.Fatalf("group %s assigned twice in one batch", out.Group)
		}
		seen[out.Group.String()] = true
	}
	if n := len(d.OwnSessions()); n != len(ttls) {
		t.Fatalf("%d owned sessions, want %d", n, len(ttls))
	}
	if n := log.count(obs.TraceAnnounce); n != len(ttls) {
		t.Fatalf("%d announcements, want %d", n, len(ttls))
	}
}

// TestCreateSessionBatchPartialFailure: when the space runs out mid-batch
// the sessions created before the failure stay created and are returned
// with the error, mirroring what sequential creates would have left.
func TestCreateSessionBatchPartialFailure(t *testing.T) {
	clk := newFakeClock()
	d, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 4, 5, nil)
	defer d.Close()

	descs := make([]*session.Description, 8)
	for i := range descs {
		descs[i] = batchDesc("x", 127)
	}
	got, err := d.CreateSessionBatch(descs)
	if err == nil {
		t.Fatal("expected exhaustion error for 8 sessions in a 4-address space")
	}
	if !strings.Contains(err.Error(), "allocate batch") {
		t.Fatalf("unexpected error: %v", err)
	}
	if len(got) == 0 || len(got) > 4 {
		t.Fatalf("partial result has %d sessions, want 1..4", len(got))
	}
	if n := len(d.OwnSessions()); n != len(got) {
		t.Fatalf("%d owned sessions, but %d returned", n, len(got))
	}
}

// TestAllocatorCountersAtEverySite: the directory counts its allocator's
// work at each of the three places it allocates — a create, a batch create
// and a clash move — one pick per address handed out and one failure per
// call that found the visible space full; a move counts once, in
// dir_clash_moves_total.
func TestAllocatorCountersAtEverySite(t *testing.T) {
	clk := newFakeClock()
	d, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 8, 5, nil)
	defer d.Close()
	counter := func(suffix string) float64 {
		t.Helper()
		for _, mv := range d.Registry().Snapshot() {
			if strings.HasPrefix(mv.Name, "allocator_") && strings.HasSuffix(mv.Name, "_"+suffix+"_total") {
				return mv.Value
			}
		}
		t.Fatalf("no allocator_*_%s_total registered", suffix)
		return 0
	}

	own, err := d.CreateSession(batchDesc("own", 127))
	if err != nil {
		t.Fatal(err)
	}
	intruder := &session.Description{
		ID: 50, Version: 1, Origin: netip.MustParseAddr("10.0.9.9"), Name: "intruder",
		Group: own.Group, TTL: own.TTL,
		Media: []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	}
	d.HandleBatch([]transport.Message{{Data: announceWire(t, intruder)}})
	if got := d.Metrics().ClashAddressChanges; got != 1 {
		t.Fatalf("moves = %v after a clash on a fresh session, want 1", got)
	}

	descs := make([]*session.Description, 8) // more than the space has left
	for i := range descs {
		descs[i] = batchDesc("b", 127)
	}
	batch, err := d.CreateSessionBatch(descs)
	if err == nil {
		t.Fatal("a batch larger than the free space succeeded")
	}
	if _, err := d.CreateSession(batchDesc("late", 127)); err == nil {
		t.Fatal("a create into a full space succeeded")
	}
	if got, want := counter("picks"), float64(1+1+len(batch)); got != want {
		t.Fatalf("picks = %v, want %v: the create, the move and the batch's %d", got, want, len(batch))
	}
	if got := counter("failures"); got != 2 {
		t.Fatalf("failures = %v, want 2: the batch and the create that found the space full", got)
	}
}

// countingAllocator wraps an Allocator by embedding it, as a caller that
// counts its allocator's calls does; the embedding hides AllocateFrom, so
// it is no allocator.StateAllocator.
type countingAllocator struct {
	allocator.Allocator
	calls, batches int
}

func (a *countingAllocator) Allocate(visible []allocator.SessionInfo, ttl mcast.TTL, rng *stats.RNG) (mcast.Addr, error) {
	a.calls++
	return a.Allocator.Allocate(visible, ttl, rng)
}

func (a *countingAllocator) AllocateBatch(visible []allocator.SessionInfo, ttl mcast.TTL, k int, dst []mcast.Addr, rng *stats.RNG) ([]mcast.Addr, error) {
	a.batches++
	return a.Allocator.AllocateBatch(visible, ttl, k, dst, rng)
}

// TestWrappedAllocatorSeesEveryCall: a configured allocator that reads
// only slices is called at every create — Allocate for one session,
// AllocateBatch for a batch — and, handed the members the directory lists
// for it, picks what the same allocator unwrapped picks from the State,
// across heard sessions that come, change address and go.
func TestWrappedAllocatorSeesEveryCall(t *testing.T) {
	clk := newFakeClock()
	bare, _ := newDirectory(t, transport.NewBus(), clk, "10.0.0.1", 256, 7, nil)
	defer bare.Close()
	counter := &countingAllocator{Allocator: allocator.NewAdaptive(256, allocator.AdaptiveConfig{GapFraction: 0.2})}
	wrapped, err := New(Config{
		Origin:    netip.MustParseAddr("10.0.0.1"),
		Transport: transport.NewBus().Endpoint(),
		Space:     mcast.SyntheticSpace(256),
		Allocator: counter,
		Clock:     clk.Now,
		Seed:      7,
		Delay:     clash.NewUniformDelay(1000, 1001),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wrapped.Close()

	space := mcast.SyntheticSpace(256)
	heard := func(id uint64, version uint64, addr mcast.Addr, ttl mcast.TTL) {
		desc := &session.Description{
			ID: id, Version: version, Origin: netip.MustParseAddr("10.0.9.9"), Name: "heard",
			Group: space.Group(addr), TTL: ttl,
			Media: []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
		}
		msgs := []transport.Message{{Data: announceWire(t, desc)}}
		bare.HandleBatch(msgs)
		wrapped.HandleBatch(msgs)
	}
	same := func(step string, a, b []*session.Description) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d sessions unwrapped, %d wrapped", step, len(a), len(b))
		}
		for i := range a {
			if a[i].Group != b[i].Group {
				t.Fatalf("%s: session %d at %s unwrapped, %s wrapped", step, i, a[i].Group, b[i].Group)
			}
		}
	}
	create := func(step string, ttl mcast.TTL) *session.Description {
		t.Helper()
		a, errA := bare.CreateSession(batchDesc("s", ttl))
		b, errB := wrapped.CreateSession(batchDesc("s", ttl))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", step, errA, errB)
		}
		same(step, []*session.Description{a}, []*session.Description{b})
		return a
	}

	for i := uint64(0); i < 40; i++ {
		heard(100+i, 1, mcast.Addr(i*6), mcast.TTL(15+i*5))
	}
	create("after hearing", 127)
	heard(100, 2, 250, 15) // moved
	heard(101, 2, 250, 20) // moved onto the same address
	own := create("after the moves", 63)
	if err := bare.WithdrawSession(own.Key()); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.WithdrawSession(own.Key()); err != nil {
		t.Fatal(err)
	}
	create("after a withdrawal", 63)
	descs := func() []*session.Description {
		out := make([]*session.Description, 5)
		for i := range out {
			out[i] = batchDesc("b", 191)
		}
		return out
	}
	a, errA := bare.CreateSessionBatch(descs())
	b, errB := wrapped.CreateSessionBatch(descs())
	if errA != nil || errB != nil {
		t.Fatalf("batch: %v, %v", errA, errB)
	}
	same("batch", a, b)
	if counter.calls != 3 || counter.batches != 1 {
		t.Fatalf("the wrapper saw %d Allocate and %d AllocateBatch calls, want 3 and 1", counter.calls, counter.batches)
	}
}
