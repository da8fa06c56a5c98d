// Command mcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	mcbench -list
//	mcbench -experiment fig5
//	mcbench -experiment all -full
//	GOMAXPROCS=8 mcbench -experiment fig5,fig12 -json BENCH.json
//
// Quick scale (default) finishes in minutes; -full reproduces the paper's
// parameter ranges (-experiment all -full took 2 min 56 s on 2 cores).
//
// The experiment engine fans trials and sweep points out over GOMAXPROCS
// workers (the occupancy sweep is always serial); output is bit-identical
// at any GOMAXPROCS. -json appends
// a machine-readable benchmark record — wall time per experiment plus
// allocation micro-benchmarks and a registry snapshot from a seeded fleet
// scenario — for tracking perf across commits.
//
// -compare turns mcbench into a regression gate:
//
//	mcbench -compare old.json new.json -tier quick
//
// It prints GitHub-annotation warnings for metrics more than 25% slower
// than the baseline (tolerancePct) and exits nonzero only for regressions
// past 2x (failRatio), so noisy CI machines inform without blocking and
// real cliffs still stop the merge.
// The gate is tiered: "quick" (every PR) checks figure timings and the
// micro budgets; "full" (nightly) additionally requires the
// directory-scale occupancy sweep — a run of ≥100k sessions inside an
// absolute wall budget, placing ≥90% of its target — ratio-gates the
// sweep's wall times, and fails a row whose seeded outcome differs from
// the baseline's. -merge lets the two tiers share one BENCH.json:
//
//	mcbench -experiment fig5,fig12 -json BENCH.json
//	mcbench -experiment occupancy -full -json BENCH.json -merge
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"sessiondir"
	"sessiondir/internal/allocator"
	"sessiondir/internal/announce"
	"sessiondir/internal/clash"
	"sessiondir/internal/experiments"
	"sessiondir/internal/mcast"
	"sessiondir/internal/obs"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/sim"
	"sessiondir/internal/stats"
	"sessiondir/internal/storage"
	"sessiondir/internal/topology"
	"sessiondir/internal/transport"
)

// benchReport is the schema written by -json.
type benchReport struct {
	Timestamp  string             `json:"timestamp"`
	Scale      string             `json:"scale"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos,omitempty"` // budget gates that need recvmmsg apply on linux only
	Figures    []figureTiming     `json:"figures"`
	Micro      []microBenchResult `json:"micro"`
	// Occupancy holds the directory-scale occupancy sweep (the -full
	// tier's 100k-session runs), one record per algorithm × resident
	// target, each with its own wall time.
	Occupancy []occupancyRecord `json:"occupancy,omitempty"`
	// Registry is the merged metrics snapshot of a small seeded fleet
	// (same schema the daemon serves at /metrics), so perf numbers and
	// protocol/occupancy counters live in one record.
	Registry []obs.MetricValue `json:"registry,omitempty"`
}

type figureTiming struct {
	ID     string  `json:"id"`
	WallMs float64 `json:"wall_ms"`
}

// occupancyRecord is one occupancy run in the report: the simulation
// outcome plus its wall time, which the full-tier gate budgets.
type occupancyRecord struct {
	Algorithm    string  `json:"algorithm"`
	Sessions     int     `json:"sessions"`
	SpaceSize    uint32  `json:"space_size"`
	Placed       int     `json:"placed"`
	FillClashes  int     `json:"fill_clashes"`
	ChurnClashes int     `json:"churn_clashes"`
	Exhausted    int     `json:"exhausted"`
	Occupancy    float64 `json:"occupancy"`
	WallMs       float64 `json:"wall_ms"`
}

// occupancyKey identifies a record across reports for the ratio gate.
func (o occupancyRecord) key() string {
	return fmt.Sprintf("%s/%d", o.Algorithm, o.Sessions)
}

// outcome renders the columns the seed alone determines.
func (o occupancyRecord) outcome() string {
	return fmt.Sprintf("space=%d placed=%d fill-clash=%d churn-clash=%d exhausted=%d",
		o.SpaceSize, o.Placed, o.FillClashes, o.ChurnClashes, o.Exhausted)
}

type microBenchResult struct {
	Name string `json:"name"`
	// NsPerOp is per *unit of work*: per allocation for the Allocate
	// micros, per address for the AllocateBatch micros, per datagram for
	// the UDPRecv micros.
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
	// Receive-micro extras (zero elsewhere): drain rate and syscall
	// amortization (datagrams retired per receive syscall).
	DgramsPerSec float64 `json:"dgrams_per_sec,omitempty"`
	BatchDepth   float64 `json:"batch_depth,omitempty"`
}

// runMicro times fn under testing.Benchmark. units is how many units of
// work (addresses of a batch, say) one b.N iteration does; ns_per_op is
// per unit, allocations and bytes per iteration.
func runMicro(name string, units int, fn func(b *testing.B)) microBenchResult {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	return microBenchResult{
		Name:     name,
		NsPerOp:  float64(res.T.Nanoseconds()) / float64(res.N*units),
		AllocsOp: res.AllocsPerOp(),
		BytesOp:  res.AllocedBytesPerOp(),
	}
}

// microBenches mirrors the hot-path micro-benchmarks in bench_test.go so a
// plain mcbench run can record allocs/op without the test harness.
func microBenches() []microBenchResult {
	mkView := func(n int, d mcast.TTLDistribution) []allocator.SessionInfo {
		rng := stats.NewRNG(5)
		view := make([]allocator.SessionInfo, n)
		for i := range view {
			view[i] = allocator.SessionInfo{Addr: mcast.Addr(rng.IntN(4096)), TTL: d.Sample(rng.IntN)}
		}
		return view
	}
	cases := []struct {
		name  string
		alloc allocator.Allocator
		ttl   mcast.TTL
	}{
		{"AllocateAdaptive", allocator.NewAdaptive(4096, allocator.AdaptiveConfig{GapFraction: 0.2}), 127},
		{"AllocateInformedRandom", allocator.NewInformedRandom(4096), 63},
		// A second fixed-band rule under the -compare ratio gate: neither
		// it nor IR may pay for the class counts only adaptive rules read.
		{"AllocateIPR7", allocator.NewStaticPartitioned(4096, allocator.IPR7Separators()), 127},
		{"AllocateHybrid", allocator.NewHybrid(4096), 127},
	}
	var out []microBenchResult
	for _, c := range cases {
		c := c
		view := mkView(500, mcast.DS4())
		rng := stats.NewRNG(5)
		out = append(out, runMicro(c.name, 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.alloc.Allocate(view, c.ttl, rng); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Batch allocation micros: ns_per_op here is per ADDRESS (total time
	// over N batches of k), which is what the <1µs/address budget gates.
	batchCases := []struct {
		name  string
		alloc allocator.Allocator
		k     int
	}{
		{"AllocateHybridBatch16", allocator.NewHybrid(4096), 16},
		{"AllocateHybridBatch64", allocator.NewHybrid(4096), 64},
		{"AllocateAdaptiveBatch16", allocator.NewAdaptive(4096, allocator.AdaptiveConfig{GapFraction: 0.2}), 16},
	}
	for _, c := range batchCases {
		c := c
		view := mkView(500, mcast.DS4())
		rng := stats.NewRNG(5)
		dst := make([]mcast.Addr, 0, c.k)
		out = append(out, runMicro(c.name, c.k, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = c.alloc.AllocateBatch(view, 127, c.k, dst[:0], rng)
				if err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Receive-path micro: the batched zero-copy drain, per datagram, fill
	// excluded (see transport.RecvThroughput).
	if res, err := transport.RecvThroughput(200, 64, 64); err != nil {
		fmt.Fprintf(os.Stderr, "recv micro UDPRecvBatch skipped: %v\n", err)
	} else {
		out = append(out, microBenchResult{
			Name:         "UDPRecvBatch",
			NsPerOp:      res.NsPerDatagram(),
			AllocsOp:     int64(res.AllocsPerDatagram + 0.5),
			DgramsPerSec: res.DatagramsPerSec(),
			BatchDepth:   res.BatchDepth(),
		})
	}

	// SAP decode micro: the aliasing zero-copy decode the receive path
	// runs per datagram. The wire sample is a realistic sdr announcement
	// with an explicit application/sdp payload type, so the number
	// exercises the payload-type interning too.
	sdpWire := sampleSAPWire()
	out = append(out, runMicro("SAPDecodeZeroCopy", 1, func(b *testing.B) {
		var p sap.Packet
		for i := 0; i < b.N; i++ {
			if err := p.Decode(sdpWire); err != nil {
				b.Fatal(err)
			}
		}
	}))

	out = append(out, checkpointMicros()...)
	out = append(out, cacheScanMicros()...)
	out = append(out, listenerMicros()...)
	out = append(out, directoryMicros()...)
	out = append(out, simMicros()...)
	out = append(out, treeMicros()...)
	return out
}

// spTreeAllocs is the allocation budget of one shortest-path tree at any
// graph size, as measured: the tree, its four per-node arrays and its flat
// child lists, and the bucket links and sort buffer it drops. A per-node
// child slice, or a queue that grows as paths are found, would make the
// count grow with the graph.
const spTreeAllocs = 9

// treeMicros time a shortest-path tree from a different root each op over
// the paper's 1864-router Mbone map — the unit of the occupancy
// simulator's set-up, which builds one per origin it reaches from — and
// over a 51 200-node Doar grid, the unit of the request–response figures
// at paper scale.
func treeMicros() []microBenchResult {
	mbone, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 1864}, stats.NewRNG(1998))
	if err != nil {
		panic(err)
	}
	grid, err := topology.GenerateGrid(51200, stats.NewRNG(1998))
	if err != nil {
		panic(err)
	}
	var out []microBenchResult
	for _, c := range []struct {
		name string
		g    *topology.Graph
	}{{"SPTree1864", mbone}, {"SPTreeGrid51200", grid}} {
		g := c.g
		out = append(out, runMicro(c.name, 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topology.NewSPTree(g, topology.NodeID(i%g.NumNodes()))
			}
		}))
	}
	return out
}

// simMicros times the occupancy simulator over a world of Hybrid-placed
// DS4 residents on the 400-node Mbone (the sim_occupancy setting): the
// view at an observer, at 1k and 10k residents (the world copies the
// session blocks of the scope classes the cache lists under the observer,
// so the 10k/1k ratio follows the visible count, not the world); whether a
// placement clashes, which reads only the residents at its address; and
// one whole churn placement at 10k residents: remove a resident, view,
// allocate, test for a clash, add.
func simMicros() []microBenchResult {
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 400}, stats.NewRNG(1998))
	if err != nil {
		panic(err)
	}
	dist := mcast.DS4()
	cache := topology.NewReachCache(g)
	for n := 0; n < g.NumNodes(); n++ {
		for _, ttl := range dist.Support() {
			cache.Reach(topology.NodeID(n), ttl)
		}
	}
	const space = 16384
	world := func(residents int) *sim.World {
		w := sim.NewWorldWithCache(g, cache)
		alloc := allocator.NewHybrid(space)
		rng := stats.NewRNG(5)
		for w.Len() < residents {
			origin, ttl := topology.NodeID(rng.IntN(g.NumNodes())), dist.Sample(rng.IntN)
			if addr, err := alloc.Allocate(w.VisibleAt(origin), ttl, rng); err == nil {
				w.Add(origin, ttl, addr)
			}
		}
		return w
	}
	var out []microBenchResult
	var w *sim.World // left at 10k residents for SimClashes10k
	for _, n := range []int{1000, 10000} {
		w = world(n)
		out = append(out, runMicro(fmt.Sprintf("SimVisibleAt%dk", n/1000), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.VisibleAt(topology.NodeID(i % g.NumNodes()))
			}
		}))
	}
	rng := stats.NewRNG(6)
	type probe struct {
		origin topology.NodeID
		ttl    mcast.TTL
		addr   mcast.Addr
	}
	probes := make([]probe, 4096)
	for i := range probes {
		probes[i] = probe{topology.NodeID(rng.IntN(g.NumNodes())), dist.Sample(rng.IntN), mcast.Addr(rng.IntN(space))}
	}
	out = append(out, runMicro("SimClashes10k", 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := probes[i%len(probes)]
			w.Clashes(p.origin, p.ttl, p.addr)
		}
	}))
	alloc := allocator.NewHybrid(space)
	return append(out, runMicro("SimPlace10k", 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := probes[i%len(probes)]
			w.RemoveAt(rng.IntN(w.Len()))
			addr, err := alloc.Allocate(w.VisibleAt(p.origin), p.ttl, rng)
			if err != nil {
				b.Fatal(err)
			}
			w.Clashes(p.origin, p.ttl, addr)
			w.Add(p.origin, p.ttl, addr)
		}
	}))
}

// cacheScanMicros times the cache's answers over 16384 live entries:
// Expire with nothing due, which Step asks once a virtual second and the
// cache's earliest-deadline bound answers without walking the entries (the
// walk it replaced read ~0.6 ms here), and Live, the checkpoint's and
// Sessions' walk.
func cacheScanMicros() []microBenchResult {
	base := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	c := announce.NewCache(time.Hour)
	for i := 0; i < 16384; i++ {
		c.Observe(&session.Description{ID: uint64(i), Version: 1, TTL: 127, Name: "mcbench cache sample",
			Origin: netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)}),
			Group:  netip.AddrFrom4([4]byte{224, 2, byte(i >> 8), byte(i)})}, base)
	}
	now := base.Add(time.Minute)
	return []microBenchResult{
		runMicro("CacheExpire16k", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n := len(c.Expire(now)); n != 0 {
					b.Fatalf("%d entries expired a minute in", n)
				}
			}
		}),
		runMicro("CacheLive16k", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if n := len(c.Live()); n != 16384 {
					b.Fatalf("%d live entries of 16384", n)
				}
			}
		}),
	}
}

// listenerMicros measures the middle of the listener path, the stages
// between SAP decode and the journal that every re-announcement of a
// known session crosses: the clash tracker's Observe at two cache sizes
// (its cost must not depend on the population) and beside a clash flood
// (nor on the defences pending for other sessions), the session codec in
// both directions, the inflate of a compressed datagram, and the payload
// digest that lets an unchanged re-announcement skip the parse
// (PayloadDigest's unit is the byte: its ns_per_op is the reciprocal of
// GB/s).
func listenerMicros() []microBenchResult {
	var out []microBenchResult
	// BesideFlood re-announces 1k quiet sessions beside a clash flood:
	// 20k sessions over the 10k addresses below theirs, a third-party
	// defence pending at each. A thousand, so that what it adds to
	// Reannounce10k is the pending defences, not a larger working set.
	for _, c := range []struct {
		name     string
		n, flood int
	}{{"ClashObserveReannounce1k", 1000, 0}, {"ClashObserveReannounce10k", 10000, 0}, {"ClashObserveBesideFlood10k", 1000, 10000}} {
		tr := clash.NewTracker(clash.TrackerConfig{
			RecentWindow: 10000,
			Delay:        clash.NewExponentialDelay(0, 3200, 200),
		}, stats.NewRNG(5))
		for i := 0; i < 2*c.flood; i++ {
			tr.Observe(clash.Observation{
				Key:  clash.SessionKey(fmt.Sprintf("10.%d.%d.2/%d", i>>8&255, i&255, i)),
				Addr: mcast.Addr(i % c.flood), TTL: 127,
			})
		}
		if n := tr.PendingDefenses(); n != c.flood {
			panic(fmt.Sprintf("%s: %d defences pending, want %d", c.name, n, c.flood))
		}
		known := make([]clash.Observation, c.n)
		for i := range known {
			known[i] = clash.Observation{
				Key:  clash.SessionKey(fmt.Sprintf("10.%d.%d.1/%d", i>>8&255, i&255, i)),
				Addr: mcast.Addr(c.flood + i), TTL: 127,
			}
			tr.Observe(known[i])
		}
		out = append(out, runMicro(c.name, 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tr.Observe(known[i%len(known)])
			}
		}))
	}
	desc := &session.Description{
		ID: 3141592653, Version: 3, OriginUser: "mjh",
		Origin: netip.MustParseAddr("10.1.2.3"),
		Name:   "mcbench codec sample", Info: "a typical sdr announcement",
		Group: netip.MustParseAddr("224.2.128.99"), TTL: 127,
		Start:      time.Date(1998, 9, 1, 14, 0, 0, 0, time.UTC),
		Stop:       time.Date(1998, 9, 1, 16, 0, 0, 0, time.UTC),
		Attributes: []string{"tool:sdr v2.5", "type:meeting"},
		Media: []session.Media{
			{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0", Attributes: []string{"ptime:40"}},
			{Type: "video", Port: 20002, Proto: "RTP/AVP", Format: "31"},
		},
	}
	payload, err := desc.MarshalSDP()
	if err != nil {
		panic(err)
	}
	pkt := sap.Packet{Type: sap.Announce, MsgIDHash: sap.MsgIDHashOf(payload), Origin: desc.Origin, Payload: payload}
	compressed, err := pkt.MarshalCompressed(nil)
	if err != nil {
		panic(err)
	}
	return append(out,
		runMicro("SessionMarshalSDP", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := desc.MarshalSDP(); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runMicro("SessionParseSDP", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := session.ParseSDP(payload); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runMicro("SAPDecodeCompressed", 1, func(b *testing.B) {
			var p sap.Packet
			for i := 0; i < b.N; i++ {
				if err := p.DecodeMaybeCompressed(compressed); err != nil {
					b.Fatal(err)
				}
			}
		}),
		runMicro("PayloadDigest", len(payload), func(b *testing.B) {
			var sum uint64
			for i := 0; i < b.N; i++ {
				sum += sap.PayloadDigest(uint64(i), payload)
			}
			if sum == 0 {
				b.Fatal("every digest was 0")
			}
		}),
		runMicro("SessionKey", 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if desc.Key() == "" {
					b.Fatal("empty key")
				}
			}
		}))
}

// directoryMicros measures the two Directory operations that used to
// rebuild a picture of the whole cache per call, each at 1k and 10k cached
// sessions: admitting a never-seen session into a full session budget
// (datagram in, one stale entry evicted, newcomer cached) and creating a
// session (an address picked by the default AIPR-1 from the directory's
// allocator state, session registered and announced; the withdrawal that
// keeps the owned population constant is inside the timed op). With the
// eviction order and the allocator state kept at the cache's mutation
// sites the 10k figures stay near the 1k ones. Third, the
// datagram a listener mostly hears: DirRefreshKnown is a 32-datagram
// HandleBatch of unchanged re-announcements, walking the whole cached
// population batch by batch; its unit is the datagram, its allocations are
// per batch. Last, the two calls a budget adds to a full cache's steady
// state: a tick with nothing due, which also counts the fresh entries for
// the overload tier (DirStep, DirStepBudgeted), and a newcomer from an
// origin at its quota of fresh sessions (DirAdmitAtQuota), also beside a
// third of the cache gone stale (DirAdmitAtQuotaStale). And an announcer's
// steady state: a tick that re-announces 256 owned sessions
// (DirStepReannounce256). And persistence at 10k heard sessions, per
// session: a checkpoint (DirCheckpoint10k) and a cold directory's
// recovery from it (DirRecover10k). And learns beside a clash flood
// (DirLearnClashing10k/100k, see learnClashing).
func directoryMicros() []microBenchResult {
	var out []microBenchResult
	origin := netip.MustParseAddr("10.0.0.1")
	base := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	space := mcast.SAPDynamicSpace()
	wireOf := func(i, o int) transport.Message {
		return sampleAnnouncement(i, o, space.Group(mcast.Addr(i%int(space.Size))))
	}
	for _, n := range []int{1000, 10000} {
		now := base
		newDir := func(budget, perOrigin int) *sessiondir.Directory {
			d, err := sessiondir.New(sessiondir.Config{
				Origin: origin, Transport: transport.NewBus().Endpoint(), Clock: func() time.Time { return now },
				Seed: 5, MaxSessions: budget, MaxPerOrigin: perOrigin, StaleAfter: time.Minute,
			})
			if err != nil {
				panic(err)
			}
			return d
		}
		// Twice the budget in distinct sessions, sent round-robin: by the
		// time one comes round again it has long been evicted, so every
		// datagram is a never-seen session. One virtual second per datagram
		// keeps everything older than a minute stale, so each is admitted by
		// evicting the head of the order.
		wires := make([]transport.Message, 2*n)
		for i := range wires {
			wires[i] = wireOf(i, i/100) // a hundred sessions per origin
		}
		admit := newDir(n, 0)
		admit.HandleBatch(wires[:n])
		now = now.Add(2 * time.Minute)
		next := n
		out = append(out, runMicro(fmt.Sprintf("DirAdmitUnknown%dk", n/1000), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Second)
				admit.HandleBatch(wires[next%len(wires) : next%len(wires)+1])
				next++
			}
		}))
		if m := admit.Metrics(); m.Shed != 0 || admit.CacheSize() != n {
			panic(fmt.Sprintf("DirAdmitUnknown: %d shed, cache %d of %d: not one eviction per admission", m.Shed, admit.CacheSize(), n))
		}
		admit.Close()

		create := newDir(0, 0)
		create.HandleBatch(wires[:n])
		desc := &session.Description{Name: "mcbench own", TTL: 127,
			Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}}}
		out = append(out, runMicro(fmt.Sprintf("DirCreateSession%dk", n/1000), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				own, err := create.CreateSession(desc)
				if err != nil {
					b.Fatal(err)
				}
				if err := create.WithdrawSession(own.Key()); err != nil {
					b.Fatal(err)
				}
			}
		}))
		create.Close()

		listen := newDir(0, 0)
		listen.HandleBatch(wires[:n])
		const batch = 32
		at := 0
		out = append(out, runMicro(fmt.Sprintf("DirRefreshKnown%dk", n/1000), batch, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Second)
				listen.HandleBatch(wires[at : at+batch])
				if at += batch; at+batch > n {
					at = 0
				}
			}
		}))
		for _, mv := range listen.Registry().Snapshot() {
			if mv.Name == "dir_refresh_fast_total" && mv.Value == 0 {
				panic("DirRefreshKnown: no datagram took the refresh path")
			}
		}
		listen.Close()

		// A timer tick with nothing due — what almost every tick of a
		// listener is: no owned session to re-announce, no defence, and no
		// cached session within a microsecond-per-tick run of its expiry.
		tick := newDir(0, 0)
		tick.HandleBatch(wires[:n])
		out = append(out, runMicro(fmt.Sprintf("DirStep%dk", n/1000), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Microsecond)
				tick.Step(now)
			}
		}))
		if m := tick.Metrics(); m.SessionsExpired != 0 || tick.CacheSize() != n {
			panic(fmt.Sprintf("DirStep: %d sessions expired, cache %d of %d: not a tick with nothing due", m.SessionsExpired, tick.CacheSize(), n))
		}
		tick.Close()

		// The same tick under a full session budget, which also takes the
		// fresh count for the overload tier: the cache's memo answers it.
		budgeted := newDir(n, 0)
		budgeted.HandleBatch(wires[:n])
		out = append(out, runMicro(fmt.Sprintf("DirStepBudgeted%dk", n/1000), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Microsecond)
				budgeted.Step(now)
			}
		}))
		if m := budgeted.Metrics(); m.SessionsExpired != 0 || budgeted.CacheSize() != n {
			panic(fmt.Sprintf("DirStepBudgeted: %d sessions expired, cache %d of %d: not a tick with nothing due", m.SessionsExpired, budgeted.CacheSize(), n))
		}
		budgeted.Close()

		// A never-seen session from an origin at its quota of a hundred,
		// all of them fresh: the planner finds nothing of the origin's to
		// evict and denies it, having looked only at the top of the order.
		quota := newDir(0, 100)
		quota.HandleBatch(wires[:n])
		crowd := make([]transport.Message, 256)
		for i := range crowd {
			crowd[i] = wireOf(2*n+i, 0)
		}
		out = append(out, runMicro(fmt.Sprintf("DirAdmitAtQuota%dk", n/1000), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Microsecond)
				quota.HandleBatch(crowd[i%len(crowd) : i%len(crowd)+1])
			}
		}))
		if m := quota.Metrics(); m.QuotaDrops == 0 || m.SessionsLearned != uint64(n) || quota.CacheSize() != n {
			panic(fmt.Sprintf("DirAdmitAtQuota: %d quota drops, %d learned, cache %d of %d: not every newcomer denied", m.QuotaDrops, m.SessionsLearned, quota.CacheSize(), n))
		}
		quota.Close()

		// The same denial when a third of the cache is stale sessions of
		// other origins, which a walk of the order for the origin's
		// evictable entries would visit: the origin's counts show it has
		// none, so the planner denies it without one.
		stale := newDir(0, 100)
		stale.HandleBatch(wires[n-n/3 : n])
		now = now.Add(2 * time.Minute)
		stale.HandleBatch(wires[:n-n/3])
		out = append(out, runMicro(fmt.Sprintf("DirAdmitAtQuotaStale%dk", n/1000), 1, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Microsecond)
				stale.HandleBatch(crowd[i%len(crowd) : i%len(crowd)+1])
			}
		}))
		if m := stale.Metrics(); m.QuotaDrops == 0 || m.SessionsLearned != uint64(n) || m.Evictions != 0 || stale.CacheSize() != n {
			panic(fmt.Sprintf("DirAdmitAtQuotaStale: %d quota drops, %d learned, %d evicted, cache %d of %d: not every newcomer denied", m.QuotaDrops, m.SessionsLearned, m.Evictions, stale.CacheSize(), n))
		}
		stale.Close()
	}

	// A checkpoint of a listener that heard 10 000 sessions — each entry's
	// learn record, its payload as heard behind its times, written into a
	// snapshot — and a cold directory's recovery from that snapshot, which
	// scans each record's payload and copies it into the cache. The unit
	// is the session.
	const persisted = 10000
	heard := make([]transport.Message, persisted)
	for i := range heard {
		heard[i] = wireOf(i, i/100)
	}
	listener := func() *sessiondir.Directory {
		d, err := sessiondir.New(sessiondir.Config{
			Origin: origin, Transport: discardTransport{}, Clock: func() time.Time { return base }, Seed: 5,
		})
		if err != nil {
			panic(err)
		}
		return d
	}
	const cacheBase = "mcbench.cache"
	fsys := storage.NewMemFS()
	keeper := listener()
	keeper.HandleBatch(heard)
	kept, _, err := sessiondir.OpenCacheStore(fsys, cacheBase, keeper)
	if err != nil {
		panic(err)
	}
	out = append(out, runMicro("DirCheckpoint10k", persisted, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := kept.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if err := kept.Close(); err != nil {
		panic(err)
	}
	keeper.Close()
	out = append(out, runMicro("DirRecover10k", persisted, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := listener()
			cs, _, err := sessiondir.OpenCacheStore(fsys, cacheBase, d)
			if err != nil {
				b.Fatal(err)
			}
			if cs.Loaded() != persisted {
				b.Fatalf("DirRecover10k: %d sessions recovered, want %d", cs.Loaded(), persisted)
			}
			if err := cs.Close(); err != nil {
				b.Fatal(err)
			}
			d.Close()
		}
	}))

	// A tick that re-announces 256 owned sessions, every one due: the
	// owned-map walk, the sort of the due keys, and 256 datagrams written
	// into the flush's arena with the payload length and hash each session
	// kept from its first send. The transport keeps nothing. Its unit is
	// the session; its allocations are per Step: 256 datagrams outgrow the
	// arena chunks and datagram slots a flush keeps.
	now := base
	reannounce, err := sessiondir.New(sessiondir.Config{
		Origin: origin, Transport: discardTransport{}, Clock: func() time.Time { return now }, Seed: 5,
	})
	if err != nil {
		panic(err)
	}
	const owned = 256
	for i := 0; i < owned; i++ {
		if _, err := reannounce.CreateSession(&session.Description{Name: fmt.Sprintf("mcbench own %d", i), TTL: 127,
			Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}}}); err != nil {
			panic(err)
		}
	}
	sent := reannounce.Metrics().AnnouncementsSent
	steps := 0
	out = append(out, runMicro("DirStepReannounce256", owned, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			now = now.Add(time.Hour) // past every session's next announcement
			reannounce.Step(now)
		}
		steps += b.N
	}))
	if m := reannounce.Metrics(); m.AnnouncementsSent-sent != uint64(steps*owned) {
		panic(fmt.Sprintf("DirStepReannounce256: %d announcements in %d Steps: not every session re-announced each Step", m.AnnouncementsSent-sent, steps))
	}
	reannounce.Close()
	return append(out, learnClashing(10000), learnClashing(100000))
}

// sampleAnnouncement is the announcement of session i, at group, by origin
// 10.1.o/256.o%256.
func sampleAnnouncement(i, o int, group netip.Addr) transport.Message {
	d := &session.Description{
		ID: uint64(i), Version: 1,
		Origin: netip.AddrFrom4([4]byte{10, 1, byte(o >> 8), byte(o)}),
		Name:   "mcbench directory sample",
		Group:  group, TTL: 127,
		Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
	}
	payload, err := d.MarshalSDP()
	if err != nil {
		panic(err)
	}
	pkt := sap.Packet{Type: sap.Announce, MsgIDHash: sap.MsgIDHashOf(payload), Origin: d.Origin, Payload: payload}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		panic(err)
	}
	return transport.Message{Data: wire}
}

// learnClashing is DirLearnClashing<n/1000>k: fresh bare directories over
// n/2 addresses each learn n sessions at random addresses, most of them
// scheduling third-party defences, in 32-datagram batches 10 ms of virtual
// time apart with a Step each virtual second. A learn cannot be repeated, so
// whole fills are timed, their HandleBatch calls only: 3×10⁵ learns per
// row, over the same 0-to-2 sessions per address at either size. Its unit
// is the datagram; its allocations are per batch.
func learnClashing(n int) microBenchResult {
	const batch = 32
	space := mcast.SyntheticSpace(uint32(n / 2))
	rng := stats.NewRNG(5)
	wires := make([]transport.Message, n)
	for i := range wires {
		wires[i] = sampleAnnouncement(i, i/100, space.Group(mcast.Addr(rng.IntN(n/2))))
	}
	fills := 300000 / n
	var elapsed time.Duration
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for fill := 0; fill < fills; fill++ {
		now := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
		d, err := sessiondir.New(sessiondir.Config{
			Origin: netip.MustParseAddr("10.0.0.1"), Transport: discardTransport{},
			Clock: func() time.Time { return now }, Seed: 5, Space: space,
		})
		if err != nil {
			panic(err)
		}
		for at := 0; at < n; at += batch {
			start := time.Now()
			d.HandleBatch(wires[at:min(at+batch, n)])
			elapsed += time.Since(start)
			if now = now.Add(10 * time.Millisecond); (at/batch+1)%100 == 0 { // a virtual second
				d.Step(now)
			}
		}
		if m := d.Metrics(); m.SessionsLearned != uint64(n) || m.ClashDefensesThird == 0 {
			panic(fmt.Sprintf("DirLearnClashing: %d of %d sessions learned, %d third-party defences: not a clash flood", m.SessionsLearned, n, m.ClashDefensesThird))
		}
		d.Close()
	}
	runtime.ReadMemStats(&after)
	batches := int64(fills * ((n + batch - 1) / batch))
	return microBenchResult{
		Name:     fmt.Sprintf("DirLearnClashing%dk", n/1000),
		NsPerOp:  float64(elapsed.Nanoseconds()) / float64(fills*n),
		AllocsOp: int64(after.Mallocs-before.Mallocs) / batches,
		BytesOp:  int64(after.TotalAlloc-before.TotalAlloc) / batches,
	}
}

// discardTransport sends nowhere and keeps nothing, so a micro that sends
// times the directory alone.
type discardTransport struct{}

func (discardTransport) SendBatch(context.Context, []transport.Datagram) error { return nil }
func (discardTransport) Subscribe(transport.Handler)                           {}
func (discardTransport) Close() error                                          { return nil }

// checkpointSessions is how many distinct learn deltas the persistence
// micro cycles through (and how many records each rotation's snapshot
// holds).
const checkpointSessions = 1000

// checkpointMicros measures the journaled store's per-delta append —
// what the daemon pays per learned session — over an in-memory VFS. The
// budget gate pins it in absolute terms: an append that allocates or
// costs microseconds has started doing work that grows with something.
func checkpointMicros() []microBenchResult {
	payloads := make([][]byte, checkpointSessions)
	for i := range payloads {
		desc := &session.Description{
			ID:      uint64(9000 + i),
			Version: 1,
			Origin:  netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)}),
			Name:    fmt.Sprintf("checkpoint-bench-%d", i),
			Group:   netip.AddrFrom4([4]byte{224, 2, byte(i >> 8), byte(i)}),
			TTL:     127,
			Media:   []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
		}
		sdp, err := desc.MarshalSDP()
		if err != nil {
			panic(err)
		}
		// The journaled learn-delta framing: kind byte, two timestamps,
		// SDP bytes — same shape sessiondir writes.
		p := make([]byte, 0, 17+len(sdp))
		p = append(p, 'L')
		p = append(p, make([]byte, 16)...)
		payloads[i] = append(p, sdp...)
	}

	// The journal is periodically rotated outside the timer so the bench
	// measures appends, not MemFS growth.
	fs := storage.NewMemFS()
	st, _, err := storage.Open(fs, "bench.cache", storage.OpenOptions{
		Replay: func([]byte) error { return nil },
	})
	if err != nil {
		panic(err)
	}
	rotate := func() {
		if cerr := st.Compact(func(add func([]byte) error) error {
			for _, p := range payloads {
				if aerr := add(p); aerr != nil {
					return aerr
				}
			}
			return nil
		}); cerr != nil {
			panic(cerr)
		}
	}
	rotate()
	return []microBenchResult{runMicro("CheckpointJournalAppend", 1, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if i%65536 == 65535 {
				b.StopTimer()
				rotate()
				b.StartTimer()
			}
			if aerr := st.Append(payloads[i%checkpointSessions]); aerr != nil {
				b.Fatal(aerr)
			}
		}
	})}
}

// sampleSAPWire marshals a representative SDP announcement for the decode
// micros, with the payload type spelled out on the wire (the interning
// fast path the zero-alloc budget pins).
func sampleSAPWire() []byte {
	desc := &session.Description{
		ID:      4711,
		Version: 3,
		Origin:  netip.MustParseAddr("10.1.2.3"),
		Name:    "mcbench decode sample",
		Group:   netip.MustParseAddr("224.2.128.99"),
		TTL:     127,
		Media:   []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
	}
	payload, err := desc.MarshalSDP()
	if err != nil {
		panic(err)
	}
	pkt := sap.Packet{
		Type:        sap.Announce,
		MsgIDHash:   sap.MsgIDHashOf(payload),
		Origin:      desc.Origin,
		PayloadType: sap.PayloadTypeSDP,
		Payload:     payload,
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		panic(err)
	}
	return wire
}

// refreshBatchAllocs is DirRefreshKnown's allocation budget per 32-datagram
// batch: none, the decoded packets' slice included.
const refreshBatchAllocs = 0

// budgetFailures enforces the absolute perf budgets on a fresh report —
// unlike the ratio gate these do not need a baseline, so a report that
// merely keeps pace with a slow ancestor still cannot pass while blowing
// the targets this PR-era hardware established:
//
//   - batched Hybrid allocation under 1µs per address at batch 16;
//   - zero steady-state allocations per received datagram;
//   - zero allocations and under 250 ns per zero-copy SAP decode (the
//     aliasing Decode the receive path runs on every datagram);
//   - on linux, ≥10 datagrams retired per receive syscall (recvmmsg
//     amortization) and the batched drain under 1500 ns per datagram;
//   - one journaled checkpoint delta append allocation-free and under
//     5 µs: persistence between checkpoints costs O(delta), nothing that
//     grows with the cache;
//   - the clash tracker's Observe of a known session allocation-free and
//     at most 1.5x dearer at 10k cached sessions than at 1k (the address
//     index: cost independent of the population, cache misses aside), and
//     beside 10k pending defences that do not name it no dearer than 1.5x
//     that (the defence hints: cost independent of the clashes elsewhere);
//   - the session codec at one allocation per key and per marshalled
//     description, under 300 ns and 2 µs (several times what the fmt-free
//     appenders measure, a fraction of what fmt cost);
//   - admitting an unknown session into a full budget, and creating a
//     session, at most 1.5x dearer at 10k cached sessions than at 1k and
//     with no more allocations (the eviction order and the allocator view
//     are kept at the cache's mutation sites, not rebuilt per call);
//   - the listener's two paths: an unchanged re-announcement refreshed at
//     no more than 0.1 allocations per datagram at either cache size (the
//     10k/1k time ratio is recorded, not gated), on a payload digest that
//     allocates nothing and runs at 2 GB/s or better; and the miss — a
//     parse in at most 4 allocations, a compressed decode in at most 3;
//   - a directory tick with nothing due allocation-free at either cache
//     size, with and without a session budget (their 10k/1k time ratios
//     are recorded, not gated, until the micros' estimator can be trusted
//     with one);
//   - a learn beside a clash flood at most 1.5x dearer per datagram at
//     100k sessions than at 10k (scheduling looks no pending defence up);
//   - a never-seen session denied at its origin's quota with the same
//     allocations at 1k and 10k cached sessions, with and without a third
//     of the cache stale (ratios recorded, not gated, as DirStep's is);
//   - a shortest-path tree over the 1864-router Mbone and over a
//     51 200-node Doar grid in the same constant allocations
//     (spTreeAllocs);
//   - the occupancy simulator's view and clash test allocation-free, the
//     view at 1k and 10k residents (its 10k/1k ratio recorded, not gated,
//     as DirStep's is).
func budgetFailures(r benchReport) []string {
	micro := make(map[string]microBenchResult, len(r.Micro))
	for _, m := range r.Micro {
		micro[m.Name] = m
	}
	var fails []string
	if m, ok := micro["AllocateHybridBatch16"]; !ok {
		fails = append(fails, "budget: micro AllocateHybridBatch16 missing from report")
	} else if m.NsPerOp >= 1000 {
		fails = append(fails, fmt.Sprintf("budget: AllocateHybridBatch16 %.0f ns/address, budget < 1000", m.NsPerOp))
	}
	if m, ok := micro["SAPDecodeZeroCopy"]; !ok {
		fails = append(fails, "budget: micro SAPDecodeZeroCopy missing from report")
	} else if m.AllocsOp != 0 || m.NsPerOp >= 250 {
		fails = append(fails, fmt.Sprintf("budget: SAPDecodeZeroCopy %.0f ns and %d allocs/op, budget < 250 ns and 0 allocs", m.NsPerOp, m.AllocsOp))
	}
	if m, ok := micro["CheckpointJournalAppend"]; !ok {
		fails = append(fails, "budget: micro CheckpointJournalAppend missing from report")
	} else if m.AllocsOp != 0 || m.NsPerOp >= 5000 {
		fails = append(fails, fmt.Sprintf("budget: CheckpointJournalAppend %.0f ns and %d allocs/op, budget < 5000 ns and 0 allocs (O(delta) persistence)", m.NsPerOp, m.AllocsOp))
	}
	re1k, have1k := micro["ClashObserveReannounce1k"]
	re10k, have10k := micro["ClashObserveReannounce10k"]
	switch {
	case !have1k:
		fails = append(fails, "budget: micro ClashObserveReannounce1k missing from report")
	case !have10k:
		fails = append(fails, "budget: micro ClashObserveReannounce10k missing from report")
	case re1k.AllocsOp != 0 || re10k.AllocsOp != 0:
		fails = append(fails, fmt.Sprintf("budget: ClashObserveReannounce %d and %d allocs/op at 1k and 10k sessions, budget 0",
			re1k.AllocsOp, re10k.AllocsOp))
	case re1k.NsPerOp > 0 && re10k.NsPerOp/re1k.NsPerOp > 1.5:
		fails = append(fails, fmt.Sprintf("budget: ClashObserveReannounce %.0f ns at 10k sessions is %.1fx its %.0f ns at 1k, budget ≤ 1.5x (O(1) in cache size)",
			re10k.NsPerOp, re10k.NsPerOp/re1k.NsPerOp, re1k.NsPerOp))
	}
	switch flood, ok := micro["ClashObserveBesideFlood10k"]; {
	case !ok:
		fails = append(fails, "budget: micro ClashObserveBesideFlood10k missing from report")
	case flood.AllocsOp != 0 || re10k.NsPerOp > 0 && flood.NsPerOp/re10k.NsPerOp > 1.5:
		fails = append(fails, fmt.Sprintf("budget: ClashObserveBesideFlood10k %.0f ns and %d allocs/op beside 10k pending defences, budget 0 allocs and ≤ 1.5x ClashObserveReannounce10k's %.0f ns (a session no defence names walks none)",
			flood.NsPerOp, flood.AllocsOp, re10k.NsPerOp))
	}
	for _, name := range []string{"DirAdmitUnknown", "DirCreateSession"} {
		at1k, have1k := micro[name+"1k"]
		at10k, have10k := micro[name+"10k"]
		switch {
		case !have1k || !have10k:
			fails = append(fails, fmt.Sprintf("budget: micro %s1k or %s10k missing from report", name, name))
		case at10k.AllocsOp > at1k.AllocsOp+1:
			fails = append(fails, fmt.Sprintf("budget: %s %d allocs/op at 10k cached sessions, %d at 1k, budget: the same",
				name, at10k.AllocsOp, at1k.AllocsOp))
		case at1k.NsPerOp > 0 && at10k.NsPerOp/at1k.NsPerOp > 1.5:
			fails = append(fails, fmt.Sprintf("budget: %s %.0f ns at 10k cached sessions is %.1fx its %.0f ns at 1k, budget ≤ 1.5x (no per-call rebuild of the cache)",
				name, at10k.NsPerOp, at10k.NsPerOp/at1k.NsPerOp, at1k.NsPerOp))
		}
	}
	switch at10k, at100k := micro["DirLearnClashing10k"], micro["DirLearnClashing100k"]; {
	case at10k.Name == "" || at100k.Name == "":
		fails = append(fails, "budget: micro DirLearnClashing10k or DirLearnClashing100k missing from report")
	case at10k.NsPerOp > 0 && at100k.NsPerOp/at10k.NsPerOp > 1.5:
		fails = append(fails, fmt.Sprintf("budget: DirLearnClashing %.0f ns/datagram at 100k sessions is %.1fx its %.0f ns at 10k, budget ≤ 1.5x (scheduling a defence looks no pending one up)",
			at100k.NsPerOp, at100k.NsPerOp/at10k.NsPerOp, at10k.NsPerOp))
	}
	for _, name := range []string{"DirAdmitAtQuota", "DirAdmitAtQuotaStale"} {
		switch at1k, at10k := micro[name+"1k"], micro[name+"10k"]; {
		case at1k.Name == "" || at10k.Name == "":
			fails = append(fails, fmt.Sprintf("budget: micro %s1k or %s10k missing from report", name, name))
		case at10k.AllocsOp != at1k.AllocsOp:
			fails = append(fails, fmt.Sprintf("budget: %s %d allocs/op at 10k cached sessions, %d at 1k, budget: the same (a denial reads the origin's counts or the top of the order, not the cache)",
				name, at10k.AllocsOp, at1k.AllocsOp))
		}
	}
	for _, c := range []struct {
		name  string
		maxNs float64
	}{{"SessionKey", 300}, {"SessionMarshalSDP", 2000}} {
		if m, ok := micro[c.name]; !ok {
			fails = append(fails, fmt.Sprintf("budget: micro %s missing from report", c.name))
		} else if m.AllocsOp > 1 || m.NsPerOp >= c.maxNs {
			fails = append(fails, fmt.Sprintf("budget: %s %.0f ns and %d allocs/op, budget < %.0f ns and ≤ 1 alloc",
				c.name, m.NsPerOp, m.AllocsOp, c.maxNs))
		}
	}
	for _, c := range []struct {
		name      string
		maxAllocs int64
		what      string
	}{
		{"SessionParseSDP", 4, "the Description, one string, one []string, one []Media"},
		{"SAPDecodeCompressed", 3, "the inflate state is pooled"},
		{"DirRefreshKnown1k", refreshBatchAllocs, "per 32-datagram batch, which decodes into a recycled slice"},
		{"DirRefreshKnown10k", refreshBatchAllocs, "per 32-datagram batch, which decodes into a recycled slice"},
		{"DirStep1k", 0, "a tick with nothing due"},
		{"DirStep10k", 0, "a tick with nothing due"},
		{"DirStepBudgeted1k", 0, "a budgeted tick with nothing due: the fresh count is kept, not taken"},
		{"DirStepBudgeted10k", 0, "a budgeted tick with nothing due: the fresh count is kept, not taken"},
		{"SPTree1864", spTreeAllocs, "a tree's fixed arrays, at any graph size"},
		{"SPTreeGrid51200", spTreeAllocs, "a tree's fixed arrays, at any graph size"},
		{"SimVisibleAt1k", 0, "the view is copied into the world's scratch"},
		{"SimVisibleAt10k", 0, "the view is copied into the world's scratch"},
		{"SimClashes10k", 0, "a walk of one address's residents"},
		{"SimPlace10k", 0, "a churn placement reuses the world's chunks and view"},
	} {
		if m, ok := micro[c.name]; !ok {
			fails = append(fails, fmt.Sprintf("budget: micro %s missing from report", c.name))
		} else if m.AllocsOp > c.maxAllocs {
			fails = append(fails, fmt.Sprintf("budget: %s %d allocs/op, budget ≤ %d (%s)", c.name, m.AllocsOp, c.maxAllocs, c.what))
		}
	}
	if m, ok := micro["PayloadDigest"]; !ok {
		fails = append(fails, "budget: micro PayloadDigest missing from report")
	} else if m.AllocsOp != 0 || m.NsPerOp > 0.5 {
		fails = append(fails, fmt.Sprintf("budget: PayloadDigest %.2f ns/byte and %d allocs/op, budget ≤ 0.5 ns/byte (2 GB/s) and 0 allocs", m.NsPerOp, m.AllocsOp))
	}
	batch, haveBatch := micro["UDPRecvBatch"]
	if !haveBatch {
		fails = append(fails, "budget: micro UDPRecvBatch missing from report")
		return fails
	}
	if batch.AllocsOp != 0 {
		fails = append(fails, fmt.Sprintf("budget: UDPRecvBatch %d allocs/datagram, budget 0", batch.AllocsOp))
	}
	if r.GOOS == "linux" {
		if batch.BatchDepth < 10 {
			fails = append(fails, fmt.Sprintf("budget: UDPRecvBatch %.1f datagrams/syscall, budget ≥ 10 (recvmmsg)", batch.BatchDepth))
		}
		if batch.NsPerOp >= 1500 {
			fails = append(fails, fmt.Sprintf("budget: UDPRecvBatch %.0f ns/datagram, budget < 1500", batch.NsPerOp))
		}
	}
	return fails
}

// registrySnapshot runs a small deterministic fleet — four directories on
// an in-process bus under a virtual clock, seeds fixed — and returns their
// merged registry sample. Counters sum across agents; the run is
// replayable, so two mcbench invocations on the same tree produce the
// same snapshot.
func registrySnapshot() ([]obs.MetricValue, error) {
	bus := transport.NewBus()
	now := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	const agents = 4
	var dirs []*sessiondir.Directory
	for i := 0; i < agents; i++ {
		d, err := sessiondir.New(sessiondir.Config{
			Origin:    netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}),
			Transport: bus.Endpoint(),
			Space:     mcast.SyntheticSpace(64),
			Seed:      uint64(i + 1),
			Clock:     clock,
		})
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	for round := 0; round < 30; round++ {
		if round < 8 {
			for i, d := range dirs {
				_, err := d.CreateSession(&session.Description{
					Name:  fmt.Sprintf("bench-%d-%d", i, round),
					TTL:   127,
					Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
				})
				if err != nil {
					return nil, err
				}
			}
		}
		now = now.Add(5 * time.Second)
		for _, d := range dirs {
			d.Step(now)
		}
	}
	merged := make(map[string]obs.MetricValue)
	for _, d := range dirs {
		for _, mv := range d.Registry().Snapshot() {
			if cur, ok := merged[mv.Name]; ok {
				cur.Value += mv.Value
				merged[mv.Name] = cur
			} else {
				merged[mv.Name] = mv
			}
		}
		d.Close()
	}
	names := make([]string, 0, len(merged))
	for n := range merged {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]obs.MetricValue, 0, len(names))
	for _, n := range names {
		out = append(out, merged[n])
	}
	return out, nil
}

// The regression gate's two thresholds.
const (
	// tolerancePct is the informational threshold: a metric this many
	// percent slower than the baseline gets a warning annotation.
	tolerancePct = 25.0
	// failRatio is the hard gate: new/old above this fails the run.
	failRatio = 2.0
)

// Full-tier absolute budgets for the occupancy sweep.
const (
	// fullTierMinSessions: the report must contain at least one run at
	// directory scale — the repo's 100k-session claim.
	fullTierMinSessions = 100000
	// fullTierWallBudgetMs bounds any single occupancy run's wall time.
	fullTierWallBudgetMs = 600000 // 10 minutes
	// fullTierMinPlacedPct: each run must place at least this fraction of
	// its resident target (placement failures mean the allocator
	// exhausted the space for some view — a capacity regression).
	fullTierMinPlacedPct = 0.9
)

// fullTierFailures enforces the nightly tier's absolute budgets on the
// new report: the occupancy sweep must be present, reach 100k sessions,
// place ≥90% of each target, and keep every run inside the wall budget.
func fullTierFailures(r benchReport) []string {
	if len(r.Occupancy) == 0 {
		return []string{"full tier: report has no occupancy records (run mcbench -experiment occupancy -full -json ...)"}
	}
	var fails []string
	maxSessions := 0
	for _, o := range r.Occupancy {
		if o.Sessions > maxSessions {
			maxSessions = o.Sessions
		}
		if float64(o.Placed) < fullTierMinPlacedPct*float64(o.Sessions) {
			fails = append(fails, fmt.Sprintf("full tier: occupancy %s placed %d of %d sessions, budget ≥ %.0f%%",
				o.key(), o.Placed, o.Sessions, fullTierMinPlacedPct*100))
		}
		if o.WallMs > fullTierWallBudgetMs {
			fails = append(fails, fmt.Sprintf("full tier: occupancy %s took %.0f ms, budget ≤ %d ms",
				o.key(), o.WallMs, fullTierWallBudgetMs))
		}
	}
	if maxSessions < fullTierMinSessions {
		fails = append(fails, fmt.Sprintf("full tier: largest occupancy run is %d sessions, budget requires ≥ %d",
			maxSessions, fullTierMinSessions))
	}
	return fails
}

// parseCompareArgs accepts the post-flag arguments of a -compare run:
// two report files in either position, plus an optional trailing
// "-tier quick|full" pair (the stdlib flag package stops at the first
// positional, so it is parsed by hand). The tier selects the budget set:
// "quick" (every PR — micro budgets only, occupancy ignored) or "full"
// (nightly — additionally requires the 100k-session occupancy runs and
// gates their wall clock and placement rate absolutely).
func parseCompareArgs(args []string) (oldPath, newPath, tier string, err error) {
	tier = "quick"
	var files []string
	for i := 0; i < len(args); i++ {
		switch strings.TrimLeft(args[i], "-") {
		case "tier":
			if i+1 >= len(args) {
				return "", "", tier, fmt.Errorf("-tier needs a value")
			}
			i++
			if args[i] != "quick" && args[i] != "full" {
				return "", "", tier, fmt.Errorf("bad -tier %q (quick or full)", args[i])
			}
			tier = args[i]
		default:
			files = append(files, args[i])
		}
	}
	if len(files) != 2 {
		return "", "", tier, fmt.Errorf("-compare needs exactly two report files, got %d", len(files))
	}
	return files[0], files[1], tier, nil
}

// compareReports checks every timing metric present in both reports.
// Returned warnings are informational (past tolerance); failures are past
// the fail ratio, or a full-tier occupancy row whose seeded outcome moved.
// Metrics only present on one side are ignored — adding or retiring a
// benchmark must not fail the gate.
func compareReports(oldR, newR benchReport, tier string) (warnings, failures []string) {
	type metric struct {
		name       string
		oldV, newV float64
	}
	var metrics []metric
	oldFig := make(map[string]float64, len(oldR.Figures))
	for _, f := range oldR.Figures {
		oldFig[f.ID] = f.WallMs
	}
	for _, f := range newR.Figures {
		if old, ok := oldFig[f.ID]; ok {
			metrics = append(metrics, metric{"figure " + f.ID + " wall_ms", old, f.WallMs})
		}
	}
	if tier == "full" {
		// Occupancy wall times join the ratio gate only on the nightly
		// tier: quick PR runs don't regenerate the sweep, so their reports
		// carry stale rows that must not annotate unrelated changes.
		oldOcc := make(map[string]occupancyRecord, len(oldR.Occupancy))
		for _, o := range oldR.Occupancy {
			oldOcc[o.key()] = o
		}
		for _, o := range newR.Occupancy {
			if old, ok := oldOcc[o.key()]; ok {
				metrics = append(metrics, metric{"occupancy " + o.key() + " wall_ms", old.WallMs, o.WallMs})
				// The outcome columns are pure functions of the seed: a
				// difference is a behaviour change, never noise.
				if was, is := old.outcome(), o.outcome(); was != is {
					failures = append(failures, fmt.Sprintf("occupancy %s seeded outcome changed: %s -> %s", o.key(), was, is))
				}
			}
		}
	}
	oldMicro := make(map[string]microBenchResult, len(oldR.Micro))
	for _, m := range oldR.Micro {
		oldMicro[m.Name] = m
	}
	for _, m := range newR.Micro {
		old, ok := oldMicro[m.Name]
		if !ok {
			continue
		}
		metrics = append(metrics, metric{"micro " + m.Name + " ns_per_op", old.NsPerOp, m.NsPerOp})
		if m.AllocsOp > old.AllocsOp {
			warnings = append(warnings, fmt.Sprintf("micro %s allocs_per_op grew %d -> %d",
				m.Name, old.AllocsOp, m.AllocsOp))
		}
	}
	for _, m := range metrics {
		if m.oldV <= 0 {
			continue // nothing meaningful to ratio against
		}
		ratio := m.newV / m.oldV
		line := fmt.Sprintf("%s: %.2f -> %.2f (%.2fx)", m.name, m.oldV, m.newV, ratio)
		switch {
		case ratio > failRatio:
			failures = append(failures, line)
		case ratio > 1+tolerancePct/100:
			warnings = append(warnings, line)
		}
	}
	return warnings, failures
}

// retiredMicros names the baseline's micro rows that the new report no
// longer has. Every -json run produces every micro, so a missing one was
// deleted or renamed (a missing figure only means -experiment left it
// out). runCompare prints them as notes: a retired benchmark leaves the
// gate without failing it, but not unseen.
func retiredMicros(oldR, newR benchReport) []string {
	have := make(map[string]bool, len(newR.Micro))
	for _, m := range newR.Micro {
		have[m.Name] = true
	}
	var gone []string
	for _, m := range oldR.Micro {
		if !have[m.Name] {
			gone = append(gone, m.Name)
		}
	}
	return gone
}

// mergeReports overlays a fresh run onto a previous record so one file
// can carry tiers produced by separate invocations (quick figures on
// every PR, the -full occupancy sweep nightly). Figure timings merge by
// id with the fresh run winning; occupancy is replaced only when the
// fresh run regenerated it; micro benches and the registry snapshot are
// always the fresh run's (a -json run always produces them). Header
// fields (timestamp, scale, toolchain) are the fresh run's.
func mergeReports(prev, fresh benchReport) benchReport {
	out := fresh
	seen := make(map[string]bool, len(fresh.Figures))
	for _, f := range fresh.Figures {
		seen[f.ID] = true
	}
	for _, f := range prev.Figures {
		if !seen[f.ID] {
			out.Figures = append(out.Figures, f)
		}
	}
	sort.Slice(out.Figures, func(i, j int) bool { return out.Figures[i].ID < out.Figures[j].ID })
	if len(fresh.Occupancy) == 0 {
		out.Occupancy = prev.Occupancy
	}
	return out
}

func readReport(path string) (benchReport, error) {
	var r benchReport
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// runCompare is the -compare entry point; the returned code is the
// process exit status (0 ok, 1 hard regression, 2 usage/read error).
func runCompare(args []string) int {
	oldPath, newPath, tier, err := parseCompareArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	oldR, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	newR, err := readReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	warnings, failures := compareReports(oldR, newR, tier)
	failures = append(failures, budgetFailures(newR)...)
	if tier == "full" {
		failures = append(failures, fullTierFailures(newR)...)
	}
	fmt.Printf("compare %s -> %s: tier %s, tolerance %.0f%%, fail ratio %.2gx\n",
		oldPath, newPath, tier, tolerancePct, failRatio)
	for _, name := range retiredMicros(oldR, newR) {
		fmt.Printf("note: baseline micro %s is not in the new report\n", name)
	}
	for _, w := range warnings {
		// GitHub Actions renders ::warning:: as a PR annotation; locally it
		// is just a greppable prefix.
		fmt.Printf("::warning title=bench regression::%s\n", w)
	}
	for _, f := range failures {
		fmt.Printf("::error title=bench regression::%s\n", f)
	}
	if len(failures) > 0 {
		fmt.Printf("FAIL: %d metric(s) regressed past %.2gx\n", len(failures), failRatio)
		return 1
	}
	fmt.Printf("ok: %d warning(s), no hard regressions\n", len(warnings))
	return 0
}

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		id       = flag.String("experiment", "all", "experiment id (see -list), comma-separated ids, or 'all'")
		full     = flag.Bool("full", false, "paper-scale parameters (slow)")
		outDir   = flag.String("outdir", "", "also write each experiment's output to <outdir>/<id>.txt")
		jsonPath = flag.String("json", "", "write a machine-readable benchmark record (wall times + allocation micro-benches) to this file")
		merge    = flag.Bool("merge", false, "merge into an existing -json file instead of replacing it: figures merge by id, occupancy is replaced only when this run regenerated it")
		compare  = flag.Bool("compare", false, "compare two benchmark records: mcbench -compare old.json new.json [-tier quick|full]")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args()))
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-10s %s\n", r.ID, r.Description)
		}
		return
	}

	scale := experiments.Quick()
	if *full {
		scale = experiments.Full()
	}

	var runners []experiments.Runner
	if *id == "all" {
		runners = experiments.All()
	} else {
		for _, one := range strings.Split(*id, ",") {
			r, err := experiments.ByID(strings.TrimSpace(one))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				fmt.Fprintln(os.Stderr, "use -list to see available experiments")
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	report := benchReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scale:      scale.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
	}

	// The occupancy sweep is recorded per run (each row carries its own
	// wall time for the full-tier budget), so when a JSON record is
	// requested its runner is replaced with one that threads results into
	// the report while printing the same rows.
	if *jsonPath != "" {
		for i, r := range runners {
			if r.ID != "occupancy" {
				continue
			}
			runners[i].Run = func(w io.Writer, s experiments.Scale) error {
				cfgs, err := experiments.OccupancyConfigs(s)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "# Occupancy: fill + churn at directory scale (Mbone %d nodes, space %d)\n",
					s.MboneNodes, s.OccSpace)
				for _, cfg := range cfgs {
					start := time.Now()
					res := sim.RunOccupancy(cfg)
					wall := time.Since(start)
					fmt.Fprintln(w, res.String())
					report.Occupancy = append(report.Occupancy, occupancyRecord{
						Algorithm:    res.Algorithm,
						Sessions:     res.Sessions,
						SpaceSize:    res.SpaceSize,
						Placed:       res.Placed,
						FillClashes:  res.FillClashes,
						ChurnClashes: res.ChurnClashes,
						Exhausted:    res.Exhausted,
						Occupancy:    res.Occupancy,
						WallMs:       float64(wall.Microseconds()) / 1000,
					})
				}
				return nil
			}
		}
	}

	for _, r := range runners {
		fmt.Printf("==== %s: %s (scale=%s) ====\n", r.ID, r.Description, scale.Name)
		start := time.Now()
		var out io.Writer = os.Stdout
		var file *os.File
		if *outDir != "" {
			var err error
			file, err = os.Create(filepath.Join(*outDir, r.ID+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			out = io.MultiWriter(os.Stdout, file)
		}
		if err := r.Run(out, scale); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, err)
			os.Exit(1)
		}
		if file != nil {
			if err := file.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		elapsed := time.Since(start)
		report.Figures = append(report.Figures, figureTiming{
			ID:     r.ID,
			WallMs: float64(elapsed.Microseconds()) / 1000,
		})
		fmt.Printf("==== %s done in %v ====\n\n", r.ID, elapsed.Round(time.Millisecond))
	}

	if *jsonPath != "" {
		fmt.Println("==== micro-benchmarks (allocation hot path) ====")
		report.Micro = microBenches()
		for _, m := range report.Micro {
			fmt.Printf("%-24s %12.0f ns/op %6d B/op %4d allocs/op", m.Name, m.NsPerOp, m.BytesOp, m.AllocsOp)
			if m.DgramsPerSec > 0 {
				fmt.Printf(" %12.0f dgram/s %6.1f dgram/syscall", m.DgramsPerSec, m.BatchDepth)
			}
			fmt.Println()
		}
		snap, err := registrySnapshot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "registry snapshot: %v\n", err)
			os.Exit(1)
		}
		report.Registry = snap
		if *merge {
			if prev, err := readReport(*jsonPath); err == nil {
				report = mergeReports(prev, report)
			} else if !os.IsNotExist(err) {
				fmt.Fprintf(os.Stderr, "-merge: %v\n", err)
				os.Exit(1)
			}
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("benchmark record written to %s\n", *jsonPath)
	}
}
