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
// micro-benchmarks and a registry snapshot from a seeded fleet scenario —
// for tracking perf across commits. The micros share one estimator
// (runMicros): each row's fastest of microRounds rounds taken
// round-robin, with its spread and every round's ns/op.
//
// -compare turns mcbench into a regression gate:
//
//	mcbench -compare old.json new.json -tier quick
//
// It prints GitHub-annotation warnings for metrics more than 25% slower
// than the baseline (tolerancePct) and exits nonzero only for regressions
// past 2x (failRatio), so noisy CI machines inform without blocking and
// real cliffs still stop the merge. A micro's ratio is read over the
// median ratio of every micro both reports carry, so a host faster or
// slower than the baseline's moves no row, and the absolute budgets (the
// budgets table) are checked on the new report alone.
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
	"slices"
	"sort"
	"strings"
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
	// NsPerOp is per *unit of work* — per allocation for the Allocate
	// micros, per address for the AllocateBatch micros, per datagram for
	// the UDPRecv micros — in the row's fastest round; allocations and
	// bytes are per op, in that round.
	NsPerOp  float64 `json:"ns_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	BytesOp  int64   `json:"bytes_per_op"`
	// Spread is the slowest round's ns_per_op over the fastest's, and
	// RoundsNs every round's in the order they ran: a ratio budget reads
	// two rows round by round. RoundsAllocs is every round's allocs/op,
	// the range -compare reads a row's allocations over.
	Spread       float64   `json:"spread,omitempty"`
	RoundsNs     []float64 `json:"rounds_ns_per_op,omitempty"`
	RoundsAllocs []int64   `json:"rounds_allocs_per_op,omitempty"`
	// Receive-micro extras (zero elsewhere): drain rate and syscall
	// amortization (datagrams retired per receive syscall).
	DgramsPerSec float64 `json:"dgrams_per_sec,omitempty"`
	BatchDepth   float64 `json:"batch_depth,omitempty"`
}

// The micro harness's estimator: each row runs microRounds rounds of n
// ops, n calibrated once so that a round lasts about roundLength, the
// rounds taken in passes round-robin across every row, each from a
// collected heap. A row reports its fastest round, which a round the host
// slowed cannot move. A ratio budget reads its two rows pass by pass, and
// the rows it pairs sit next to each other in a pass.
const (
	microRounds = 5
	roundLength = 100 * time.Millisecond
)

// microRow is one micro-benchmark: run does n ops of units units of work
// each, and panics if a check of what they did fails.
type microRow struct {
	name  string
	units int
	run   func(n int)
}

// untimed is how much of the running row's run was set-up it keeps off
// its clock (offClock, or the receive row's fill).
var untimed time.Duration

// offClock runs f off the running row's clock.
func offClock(f func()) {
	start := time.Now()
	f()
	untimed += time.Since(start)
}

// each is a row's run that calls op n times, counting ops across runs:
// op(i) is the row's i-th op.
func each(op func(i int)) func(n int) {
	i := 0
	return func(n int) {
		for end := i + n; i < end; i++ {
			op(i)
		}
	}
}

// must panics on err: a failed check of a row, or of its set-up.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// sample runs r's n ops once: its wall time, the part of it timed, and
// the heap allocations and bytes it made.
func (r microRow) sample(n int) (wall, timed time.Duration, allocs, bytes int64) {
	var before, after runtime.MemStats
	untimed = 0
	runtime.ReadMemStats(&before)
	start := time.Now()
	r.run(n)
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, wall - untimed, int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
}

// runMicros calibrates every row, then measures them. A row's ops per
// round grow, aiming 20 % past roundLength and at most 100× a step, until
// one run lasts roundLength.
func runMicros(rows []microRow) []microBenchResult {
	ops := make([]int, len(rows))
	for i, r := range rows {
		for ops[i] = 1; ; {
			wall, _, _, _ := r.sample(ops[i])
			if wall >= roundLength {
				break
			}
			ops[i] = min(max(int(float64(ops[i])*1.2*float64(roundLength)/float64(max(wall, time.Microsecond))), ops[i]+1), 100*ops[i])
		}
	}
	return measureRounds(rows, ops)
}

// measureRounds runs microRounds passes over rows, ops[i] ops of row i
// each, and reports each row's fastest round and its spread. Rows a ratio
// budget reads run next to each other and take their rounds in turns, a
// tenth of each round at a time, so that they meet the host's moods
// alike.
func measureRounds(rows []microRow, ops []int) []microBenchResult {
	out := make([]microBenchResult, len(rows))
	for pass := 0; pass < microRounds; pass++ {
		round := make([]microBenchResult, len(rows)) // the pass's total ns, allocations and bytes per row
		for lo, hi := 0, 0; lo < len(rows); lo = hi {
			for hi = lo + 1; hi < len(rows) && ratioBudgeted(rows[hi-1].name, rows[hi].name); hi++ {
			}
			turns := 1
			if hi-lo > 1 {
				turns = 10
			}
			runtime.GC() // as testing.B does: no row pays for another's garbage
			for turn := 0; turn < turns; turn++ {
				for i := lo; i < hi; i++ {
					if k := ops[i]*(turn+1)/turns - ops[i]*turn/turns; k > 0 {
						_, timed, allocs, bytes := rows[i].sample(k)
						r := &round[i]
						r.NsPerOp, r.AllocsOp, r.BytesOp = r.NsPerOp+float64(timed), r.AllocsOp+allocs, r.BytesOp+bytes
					}
				}
			}
		}
		for i, r := range round {
			m, n := &out[i], int64(ops[i])
			ns := r.NsPerOp / float64(n*int64(rows[i].units))
			m.RoundsAllocs = append(m.RoundsAllocs, r.AllocsOp/n)
			if m.RoundsNs = append(m.RoundsNs, ns); pass == 0 || ns < m.NsPerOp {
				*m = microBenchResult{Name: rows[i].name, NsPerOp: ns, AllocsOp: r.AllocsOp / n, BytesOp: r.BytesOp / n, RoundsNs: m.RoundsNs, RoundsAllocs: m.RoundsAllocs}
			}
		}
	}
	for i := range out {
		if m := &out[i]; m.NsPerOp > 0 {
			m.Spread = slices.Max(m.RoundsNs) / m.NsPerOp
		}
	}
	return out
}

// ratioBudgeted reports whether a ratio budget reads rows a and b.
func ratioBudgeted(a, b string) bool {
	return slices.ContainsFunc(budgets, func(r budget) bool {
		return r.kind == ratioAtMost && (r.row == a && r.other == b || r.row == b && r.other == a)
	})
}

// epoch is the virtual time every micro's clock starts at.
var epoch = time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)

// microBenches mirrors the hot-path micro-benchmarks in bench_test.go so a
// plain mcbench run can record allocs/op without the test harness. Every
// row's state is built first and lives until the rounds are over.
func microBenches() []microBenchResult {
	mkView := func(n int, d mcast.TTLDistribution) []allocator.SessionInfo {
		rng := stats.NewRNG(5)
		view := make([]allocator.SessionInfo, n)
		for i := range view {
			view[i] = allocator.SessionInfo{Addr: mcast.Addr(rng.IntN(4096)), TTL: d.Sample(rng.IntN)}
		}
		return view
	}
	var rows []microRow
	for _, c := range []struct {
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
	} {
		view := mkView(500, mcast.DS4())
		rng := stats.NewRNG(5)
		rows = append(rows, microRow{c.name, 1, each(func(int) {
			_, err := c.alloc.Allocate(view, c.ttl, rng)
			must(err)
		})})
	}

	// Batch allocation micros: ns_per_op here is per ADDRESS (total time
	// over N batches of k), which is what the <1µs/address budget gates.
	for _, c := range []struct {
		name  string
		alloc allocator.Allocator
		k     int
	}{
		{"AllocateHybridBatch16", allocator.NewHybrid(4096), 16},
		{"AllocateHybridBatch64", allocator.NewHybrid(4096), 64},
		{"AllocateAdaptiveBatch16", allocator.NewAdaptive(4096, allocator.AdaptiveConfig{GapFraction: 0.2}), 16},
	} {
		view := mkView(500, mcast.DS4())
		rng := stats.NewRNG(5)
		dst := make([]mcast.Addr, 0, c.k)
		rows = append(rows, microRow{c.name, c.k, each(func(int) {
			var err error
			dst, err = c.alloc.AllocateBatch(view, 127, c.k, dst[:0], rng)
			must(err)
		})})
	}

	// Receive-path micro: the batched zero-copy drain, per datagram, fill
	// excluded (see transport.RecvThroughput). An op is a 64-datagram fill
	// and drain; a run's two sockets and their buffers count in its
	// allocations and bytes. Its drain rate and batch depth are over all
	// its runs.
	var recv transport.RecvThroughputResult
	if _, err := transport.RecvThroughput(1, 64, 64); err != nil {
		fmt.Fprintf(os.Stderr, "recv micro UDPRecvBatch skipped: %v\n", err)
	} else {
		rows = append(rows, microRow{"UDPRecvBatch", 64, func(n int) {
			start := time.Now()
			res, err := transport.RecvThroughput(n, 64, 64)
			must(err)
			untimed += time.Since(start) - time.Duration(res.NsPerDatagram()*float64(n*64))
			recv.Datagrams, recv.Reads, recv.DrainNs = recv.Datagrams+res.Datagrams, recv.Reads+res.Reads, recv.DrainNs+res.DrainNs
		}})
	}

	// SAP decode micro: the aliasing zero-copy decode the receive path
	// runs per datagram. The wire sample is a realistic sdr announcement
	// with an explicit application/sdp payload type, so the number
	// exercises the payload-type interning too.
	sdpWire := sampleSAPWire()
	var p sap.Packet
	rows = append(rows, microRow{"SAPDecodeZeroCopy", 1, each(func(int) { must(p.Decode(sdpWire)) })})

	rows = append(rows, checkpointMicro())
	rows = append(rows, cacheScanMicros()...)
	rows = append(rows, listenerMicros()...)
	rows = append(rows, directoryMicros()...)
	rows = append(rows, simMicros()...)
	rows = append(rows, treeMicros()...)
	out := runMicros(rows)
	for i := range out {
		if m := &out[i]; m.Name == "UDPRecvBatch" {
			m.DgramsPerSec, m.BatchDepth = recv.DatagramsPerSec(), recv.BatchDepth()
		}
	}
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
func treeMicros() []microRow {
	mbone, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 1864}, stats.NewRNG(1998))
	must(err)
	grid, err := topology.GenerateGrid(51200, stats.NewRNG(1998))
	must(err)
	var rows []microRow
	for _, c := range []struct {
		name string
		g    *topology.Graph
	}{{"SPTree1864", mbone}, {"SPTreeGrid51200", grid}} {
		rows = append(rows, microRow{c.name, 1, each(func(root int) { topology.NewSPTree(c.g, topology.NodeID(root%c.g.NumNodes())) })})
	}
	return rows
}

// simMicros times the occupancy simulator over a world of Hybrid-placed
// DS4 residents on the 400-node Mbone (the sim_occupancy setting): the
// view at an observer, at 1k and 10k residents (the world copies the
// session blocks of the scope classes the cache lists under the observer,
// so the 10k/1k ratio follows the visible count, not the world); whether a
// placement clashes, which reads only the residents at its address; and
// one whole churn placement at 10k residents: remove a resident, view,
// allocate, test for a clash, add.
func simMicros() []microRow {
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 400}, stats.NewRNG(1998))
	must(err)
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
	var rows []microRow
	var w *sim.World // left at 10k residents for SimClashes10k and SimPlace10k
	for _, n := range []int{1000, 10000} {
		at := world(n)
		rows = append(rows, microRow{fmt.Sprintf("SimVisibleAt%dk", n/1000), 1, each(func(observer int) { at.VisibleAt(topology.NodeID(observer % g.NumNodes())) })})
		w = at
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
	alloc := allocator.NewHybrid(space)
	return append(rows,
		microRow{"SimClashes10k", 1, each(func(i int) {
			p := probes[i%len(probes)]
			w.Clashes(p.origin, p.ttl, p.addr)
		})},
		microRow{"SimPlace10k", 1, each(func(i int) {
			p := probes[i%len(probes)]
			w.RemoveAt(rng.IntN(w.Len()))
			addr, err := alloc.Allocate(w.VisibleAt(p.origin), p.ttl, rng)
			must(err)
			w.Clashes(p.origin, p.ttl, addr)
			w.Add(p.origin, p.ttl, addr)
		})})
}

// cacheScanMicros times the cache's answers over 16384 live entries:
// Expire with nothing due, which Step asks once a virtual second and the
// cache's earliest-deadline bound answers without walking the entries (the
// walk it replaced read ~0.6 ms here), and Live, the checkpoint's and
// Sessions' walk.
func cacheScanMicros() []microRow {
	c := announce.NewCache(time.Hour)
	for i := 0; i < 16384; i++ {
		c.Observe(&session.Description{ID: uint64(i), Version: 1, TTL: 127, Name: "mcbench cache sample",
			Origin: netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)}),
			Group:  netip.AddrFrom4([4]byte{224, 2, byte(i >> 8), byte(i)})}, epoch)
	}
	now := epoch.Add(time.Minute)
	return []microRow{
		{"CacheExpire16k", 1, each(func(int) {
			if expired := len(c.Expire(now)); expired != 0 {
				panic(fmt.Sprintf("CacheExpire16k: %d entries expired a minute in", expired))
			}
		})},
		{"CacheLive16k", 1, each(func(int) {
			if live := len(c.Live()); live != 16384 {
				panic(fmt.Sprintf("CacheLive16k: %d live entries of 16384", live))
			}
		})},
	}
}

// listenerMicros measures the middle of the listener path, the stages
// between SAP decode and the journal that every re-announcement of a
// known session crosses: the clash tracker's Observe at two cache sizes
// (its cost must not depend on the population) and beside a clash flood
// (nor on the defences pending for other sessions), its Due with nothing
// due beside that flood (what every tick asks), the session codec in
// both directions, the inflate of a compressed datagram, and the payload
// digest that lets an unchanged re-announcement skip the parse
// (PayloadDigest's unit is the byte: its ns_per_op is the reciprocal of
// GB/s).
func listenerMicros() []microRow {
	var rows []microRow
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
		rows = append(rows, microRow{c.name, 1, each(func(i int) { tr.Observe(known[i%len(known)]) })})
		if c.flood == 0 {
			continue
		}
		// The flood was heard at 0 ms, so every defence falls due after
		// it: a tick then has nothing to hand over, and must not walk the
		// 10k defences to find that out.
		rows = append(rows, microRow{"ClashDueNothing10k", 1, each(func(int) {
			if due := tr.Due(0); len(due) != 0 {
				panic(fmt.Sprintf("ClashDueNothing10k: %d defences due at the flood's instant", len(due)))
			}
		})})
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
	must(err)
	pkt := sap.Packet{Type: sap.Announce, MsgIDHash: sap.MsgIDHashOf(payload), Origin: desc.Origin, Payload: payload}
	compressed, err := pkt.MarshalCompressed(nil)
	must(err)
	var p sap.Packet
	return append(rows,
		microRow{"SessionMarshalSDP", 1, each(func(int) {
			_, err := desc.MarshalSDP()
			must(err)
		})},
		microRow{"SessionParseSDP", 1, each(func(int) {
			_, err := session.ParseSDP(payload)
			must(err)
		})},
		microRow{"SAPDecodeCompressed", 1, each(func(int) { must(p.DecodeMaybeCompressed(compressed)) })},
		microRow{"PayloadDigest", len(payload), each(func(i int) {
			if sap.PayloadDigest(uint64(i), payload) == 0 {
				panic("PayloadDigest: a digest was 0")
			}
		})},
		microRow{"SessionKey", 1, each(func(int) {
			if desc.Key() == "" {
				panic("SessionKey: empty key")
			}
		})})
}

// clockedDir is a Directory on its own virtual clock, so that rows taking
// turns never move each other's time.
type clockedDir struct {
	*sessiondir.Directory
	now time.Time
}

// newClockedDir makes a directory of origin 10.0.0.1, seed 5, on a clock
// starting at epoch.
func newClockedDir(cfg sessiondir.Config) *clockedDir {
	d := &clockedDir{now: epoch}
	cfg.Origin, cfg.Seed, cfg.Clock = netip.MustParseAddr("10.0.0.1"), 5, func() time.Time { return d.now }
	var err error
	d.Directory, err = sessiondir.New(cfg)
	must(err)
	return d
}

// ownedDir is a directory that sends nowhere and owns n sessions, none due
// for re-announcement within the next five seconds.
func ownedDir(n int) *clockedDir {
	d := newClockedDir(sessiondir.Config{Transport: discardTransport{}})
	for i := 0; i < n; i++ {
		_, err := d.CreateSession(&session.Description{Name: fmt.Sprintf("mcbench own %d", i), TTL: 127,
			Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}}})
		must(err)
	}
	return d
}

// directoryMicros measures Directory calls at 1k and 10k cached sessions:
// an unknown session admitted into a full budget; a create, with the
// withdrawal that keeps the owned population constant; a 32-datagram batch
// of unchanged re-announcements (its unit the datagram, its allocations
// per batch); a tick with nothing due, with and without a session budget;
// and a newcomer denied at its origin's quota, with and without a stale
// third of the cache. With the cache's indices kept at its mutation sites
// each 10k figure stays near the 1k one. Then an announcer's ticks
// (DirStepReannounce256; DirStepOwned256/16k, a tick with nothing due,
// which skips the owned sessions), persistence at 10k heard sessions, per
// session (DirCheckpoint10k; DirRecover10k, and DirRecoverBudgeted10k
// under a budget it fills), and learns beside a clash flood
// (learnClashing).
func directoryMicros() []microRow {
	var sized [2][]microRow // the 1k rows and the 10k rows, in one order
	var journaled microRow  // DirAdmitUnknown10k with a journal
	space := mcast.SAPDynamicSpace()
	wireOf := func(i, o int) transport.Message {
		return sampleAnnouncement(i, o, space.Group(mcast.Addr(i%int(space.Size))))
	}
	for s, n := range []int{1000, 10000} {
		size := fmt.Sprintf("%dk", n/1000)
		newDir := func(budget, perOrigin int) *clockedDir {
			return newClockedDir(sessiondir.Config{Transport: transport.NewBus().Endpoint(),
				MaxSessions: budget, MaxPerOrigin: perOrigin, StaleAfter: time.Minute})
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
		admitRow := func(name string, admit *clockedDir) microRow {
			admit.HandleBatch(wires[:n])
			admit.now = admit.now.Add(2 * time.Minute)
			next := n
			return microRow{name, 1, func(ops int) {
				for i := 0; i < ops; i++ {
					admit.now = admit.now.Add(time.Second)
					admit.HandleBatch(wires[next%len(wires) : next%len(wires)+1])
					next++
				}
				if m := admit.Metrics(); m.Shed != 0 || admit.CacheSize() != n {
					panic(fmt.Sprintf("%s: %d shed, cache %d of %d: not one eviction per admission", name, m.Shed, admit.CacheSize(), n))
				}
			}}
		}
		sized[s] = append(sized[s], admitRow("DirAdmitUnknown"+size, newDir(n, 0)))
		if n == 10000 {
			// The same admissions with a CacheStore attached, onto a disk
			// that keeps nothing: each also journals a learn and an
			// eviction record, framed into the directory's batch buffer and
			// checksummed and written by the store.
			d := newDir(n, 0)
			cs, _, err := sessiondir.OpenCacheStore(storage.DiscardFS{}, "mcbench.cache", d.Directory)
			must(err)
			must(cs.Checkpoint())
			journaled = admitRow("DirAdmitUnknownJournaled10k", d)
			admit := journaled.run
			journaled.run = func(ops int) {
				before := cs.Stats().Appended
				admit(ops)
				if st := cs.Stats(); st.AppendErrors != 0 || st.Appended-before != 2*uint64(ops) {
					panic(fmt.Sprintf("DirAdmitUnknownJournaled10k: %d records journaled, %d append errors; want a learn and an eviction per admission",
						st.Appended-before, st.AppendErrors))
				}
			}
		}

		create := newDir(0, 0)
		create.HandleBatch(wires[:n])
		desc := &session.Description{Name: "mcbench own", TTL: 127,
			Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}}}
		sized[s] = append(sized[s], microRow{"DirCreateSession" + size, 1, each(func(int) {
			own, err := create.CreateSession(desc)
			must(err)
			must(create.WithdrawSession(own.Key()))
		})})

		listen := newDir(0, 0)
		listen.HandleBatch(wires[:n])
		const batch = 32
		listen.HandleBatch(wires[:batch])
		for _, mv := range listen.Registry().Snapshot() {
			if mv.Name == "dir_refresh_fast_total" && mv.Value == 0 {
				panic("DirRefreshKnown: no datagram took the refresh path")
			}
		}
		sized[s] = append(sized[s], microRow{"DirRefreshKnown" + size, batch, each(func(i int) {
			at := i % (n / batch) * batch
			listen.now = listen.now.Add(time.Second)
			listen.HandleBatch(wires[at : at+batch])
		})})

		// A timer tick with nothing due — what almost every tick of a
		// listener is: no owned session to re-announce, no defence, and no
		// cached session within a microsecond-per-tick run of its expiry.
		// Then the same tick under a full session budget, which also takes
		// the fresh count for the overload tier: the cache's memo answers it.
		for _, c := range []struct {
			name   string
			budget int
		}{{"DirStep", 0}, {"DirStepBudgeted", n}} {
			tick := newDir(c.budget, 0)
			tick.HandleBatch(wires[:n])
			sized[s] = append(sized[s], microRow{c.name + size, 1, func(ops int) {
				for i := 0; i < ops; i++ {
					tick.now = tick.now.Add(time.Microsecond)
					tick.Step(tick.now)
				}
				if m := tick.Metrics(); m.SessionsExpired != 0 || tick.CacheSize() != n {
					panic(fmt.Sprintf("%s: %d sessions expired, cache %d of %d: not a tick with nothing due", c.name, m.SessionsExpired, tick.CacheSize(), n))
				}
			}})
		}

		// A never-seen session from an origin at its quota of a hundred,
		// all of them fresh: the planner finds nothing of the origin's to
		// evict and denies it, having looked only at the top of the order.
		// Then the same denial when a third of the cache is stale sessions
		// of other origins, which a walk of the order for the origin's
		// evictable entries would visit: the origin's counts show it has
		// none, so the planner denies it without one.
		crowd := make([]transport.Message, 256)
		for i := range crowd {
			crowd[i] = wireOf(2*n+i, 0)
		}
		quota := newDir(0, 100)
		quota.HandleBatch(wires[:n])
		stale := newDir(0, 100)
		stale.HandleBatch(wires[n-n/3 : n])
		stale.now = stale.now.Add(2 * time.Minute)
		stale.HandleBatch(wires[:n-n/3])
		for _, c := range []struct {
			name string
			d    *clockedDir
		}{{"DirAdmitAtQuota", quota}, {"DirAdmitAtQuotaStale", stale}} {
			sent := 0
			sized[s] = append(sized[s], microRow{c.name + size, 1, func(ops int) {
				for i := 0; i < ops; i++ {
					c.d.now = c.d.now.Add(time.Microsecond)
					c.d.HandleBatch(crowd[sent%len(crowd) : sent%len(crowd)+1])
					sent++
				}
				if m := c.d.Metrics(); m.QuotaDrops == 0 || m.SessionsLearned != uint64(n) || m.Evictions != 0 || c.d.CacheSize() != n {
					panic(fmt.Sprintf("%s: %d quota drops, %d learned, %d evicted, cache %d of %d: not every newcomer denied",
						c.name, m.QuotaDrops, m.SessionsLearned, m.Evictions, c.d.CacheSize(), n))
				}
			}})
		}
	}
	// A row's two sizes run back to back in each pass, so that a ratio
	// budget reads them at one host speed.
	var rows []microRow
	for i := range sized[0] {
		rows = append(rows, sized[0][i], sized[1][i])
	}
	rows = append(rows, journaled)

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
	keeper := newClockedDir(sessiondir.Config{Transport: discardTransport{}})
	keeper.HandleBatch(heard)
	openStore := func(fsys storage.FS) *sessiondir.CacheStore {
		cs, _, err := sessiondir.OpenCacheStore(fsys, "mcbench.cache", keeper.Directory)
		must(err)
		return cs
	}
	// DirRecover10k reads a file of its own, so that the checkpoints
	// DirCheckpoint10k takes between its rounds never touch it.
	saved := storage.NewMemFS()
	if cs := openStore(saved); cs.Checkpoint() != nil || cs.Close() != nil {
		panic("DirRecover10k: the snapshot to recover from was not written")
	}
	kept := openStore(storage.NewMemFS())
	rows = append(rows, microRow{"DirCheckpoint10k", persisted, each(func(int) { must(kept.Checkpoint()) })})
	// The same recovery under a session budget and per-origin quota that
	// the snapshot's 10 000 sessions of 100 origins fill exactly: the cache
	// keeps its eviction order as it restores, and the trim finds nothing
	// over from the order's counts, without sorting the cache.
	for _, c := range []struct {
		name     string
		budgeted bool
	}{{"DirRecover10k", false}, {"DirRecoverBudgeted10k", true}} {
		cfg := sessiondir.Config{Transport: discardTransport{}}
		if c.budgeted {
			cfg.MaxSessions, cfg.MaxPerOrigin = persisted, 100
		}
		rows = append(rows, microRow{c.name, persisted, each(func(int) {
			d := newClockedDir(cfg)
			cs, _, err := sessiondir.OpenCacheStore(saved, "mcbench.cache", d.Directory)
			must(err)
			if cs.Loaded() != persisted || d.CacheSize() != persisted {
				panic(fmt.Sprintf("%s: %d sessions recovered, %d kept, want %d", c.name, cs.Loaded(), d.CacheSize(), persisted))
			}
			must(cs.Close())
			d.Close()
		})})
	}

	// A tick that re-announces 256 owned sessions, every one due: the
	// owned-map walk, the sort of the due keys, and 256 datagrams written
	// into the flush's arena with the payload length and hash each session
	// kept from its first send. The transport keeps nothing. Its unit is
	// the session; its allocations are per Step: 256 datagrams outgrow the
	// arena chunks and datagram slots a flush keeps.
	const owned = 256
	reannounce := ownedDir(owned)
	rows = append(rows, microRow{"DirStepReannounce256", owned, func(n int) {
		sent := reannounce.Metrics().AnnouncementsSent
		for i := 0; i < n; i++ {
			reannounce.now = reannounce.now.Add(time.Hour) // past every session's next announcement
			reannounce.Step(reannounce.now)
		}
		if m := reannounce.Metrics(); m.AnnouncementsSent-sent != uint64(n*owned) {
			panic(fmt.Sprintf("DirStepReannounce256: %d announcements in %d Steps: not every session re-announced each Step", m.AnnouncementsSent-sent, n))
		}
	}})
	// A tick of an announcer with nothing due: the owned sessions' bound
	// on their next announcement lets it skip their walk. The clock moves
	// a nanosecond a tick, so that the rounds stay inside the five quiet
	// seconds.
	for _, c := range []struct {
		name  string
		owned int
	}{{"DirStepOwned256", owned}, {"DirStepOwned16k", 16384}} {
		quiet := ownedDir(c.owned)
		sent := quiet.Metrics().AnnouncementsSent
		rows = append(rows, microRow{c.name, 1, func(n int) {
			for i := 0; i < n; i++ {
				quiet.now = quiet.now.Add(time.Nanosecond)
				quiet.Step(quiet.now)
			}
			if m := quiet.Metrics(); m.AnnouncementsSent != sent {
				panic(fmt.Sprintf("%s: %d announcements: not a tick with nothing due", c.name, m.AnnouncementsSent-sent))
			}
		}})
	}
	return append(rows, learnClashing(10000), learnClashing(100000))
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
	must(err)
	pkt := sap.Packet{Type: sap.Announce, MsgIDHash: sap.MsgIDHashOf(payload), Origin: d.Origin, Payload: payload}
	wire, err := pkt.Marshal(nil)
	must(err)
	return transport.Message{Data: wire}
}

// learnClashing is DirLearnClashing<n/1000>k: a fresh bare directory over
// n/2 addresses learns n sessions at random addresses, most of them
// scheduling third-party defences, in 32-datagram batches 10 ms of virtual
// time apart with a Step each virtual second. A learn cannot be repeated,
// so an op is a whole fill from a collected heap, its HandleBatch calls
// timed, over the same 0-to-2 sessions per address at either size. Its
// unit is the datagram; its allocations are per fill.
func learnClashing(n int) microRow {
	const batch = 32
	space := mcast.SyntheticSpace(uint32(n / 2))
	rng := stats.NewRNG(5)
	wires := make([]transport.Message, n)
	for i := range wires {
		wires[i] = sampleAnnouncement(i, i/100, space.Group(mcast.Addr(rng.IntN(n/2))))
	}
	return microRow{fmt.Sprintf("DirLearnClashing%dk", n/1000), n, func(fills int) {
		for fill := 0; fill < fills; fill++ {
			var d *clockedDir
			offClock(func() {
				runtime.GC() // the other fills' garbage is collected in none
				d = newClockedDir(sessiondir.Config{Transport: discardTransport{}, Space: space})
			})
			for at := 0; at < n; at += batch {
				d.HandleBatch(wires[at:min(at+batch, n)])
				if d.now = d.now.Add(10 * time.Millisecond); (at/batch+1)%100 == 0 { // a virtual second
					offClock(func() { d.Step(d.now) })
				}
			}
			offClock(func() {
				if m := d.Metrics(); m.SessionsLearned != uint64(n) || m.ClashDefensesThird == 0 {
					panic(fmt.Sprintf("DirLearnClashing: %d of %d sessions learned, %d third-party defences: not a clash flood", m.SessionsLearned, n, m.ClashDefensesThird))
				}
				d.Close()
			})
		}
	}}
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

// checkpointMicro measures the journaled store's per-delta append — what
// the daemon pays per learned session — over an in-memory VFS. The budget
// gate pins it in absolute terms: an append that allocates or costs
// microseconds has started doing work that grows with something.
func checkpointMicro() microRow {
	// The journaled learn delta: kind byte, two timestamps, SDP bytes —
	// same shape sessiondir writes — framed for Append, one batch each.
	head := append([]byte{'L'}, make([]byte, 16)...)
	sdps := make([]string, checkpointSessions)
	batches := make([][]byte, checkpointSessions)
	for i := range batches {
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
		must(err)
		sdps[i] = string(sdp)
		batches[i] = storage.AppendRecord(nil, head, sdps[i])
	}

	// The journal is rotated every 65536 appends, off the clock, so the
	// micro measures appends, not MemFS growth.
	mem := storage.NewMemFS()
	st, _, err := storage.Open(mem, "bench.cache", storage.OpenOptions{
		Replay: func([]byte) error { return nil },
	})
	must(err)
	rotate := func() {
		must(st.Compact(func(add func(head []byte, body string) error) error {
			for _, sdp := range sdps {
				if aerr := add(head, sdp); aerr != nil {
					return aerr
				}
			}
			return nil
		}))
	}
	rotate()
	return microRow{"CheckpointJournalAppend", 1, each(func(i int) {
		if i%65536 == 65535 {
			offClock(rotate)
		}
		_, err := st.Append(batches[i%checkpointSessions])
		must(err)
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
	must(err)
	pkt := sap.Packet{
		Type:        sap.Announce,
		MsgIDHash:   sap.MsgIDHashOf(payload),
		Origin:      desc.Origin,
		PayloadType: sap.PayloadTypeSDP,
		Payload:     payload,
	}
	wire, err := pkt.Marshal(nil)
	must(err)
	return wire
}

// budgetKind is what a budget bounds.
type budgetKind int

const (
	allocsAtMost  budgetKind = iota // the row's allocs/op at most limit
	nsAtMost                        // its ns_per_op at most limit
	ratioAtMost                     // its ns_per_op at most limit times other's (nsRatio)
	allocsAsOther                   // its allocs/op within limit of other's
	depthAtLeast                    // at least limit datagrams retired per receive call
)

// budget is one absolute perf rule over a fresh report. Unlike the ratio
// gate it needs no baseline, so a report that keeps pace with a slow
// ancestor still cannot pass while blowing a target this hardware
// established.
type budget struct {
	row   string
	kind  budgetKind
	limit float64
	other string // the row a ratio or an allocation count is read against
	why   string
}

// budgets is the gate's table, checked by budgetFailures on every -compare.
// Size ratios not in it (DirRefreshKnown, SimVisibleAt) are recorded, not
// gated.
var budgets = []budget{
	{"AllocateHybridBatch16", nsAtMost, 1000, "", "batched Hybrid allocation, per address"},
	{"SAPDecodeZeroCopy", allocsAtMost, 0, "", "the aliasing decode the receive path runs on every datagram"},
	{"SAPDecodeZeroCopy", nsAtMost, 250, "", "the aliasing decode the receive path runs on every datagram"},
	{"UDPRecvBatch", allocsAtMost, 0, "", "steady-state receive"},
	{"CheckpointJournalAppend", allocsAtMost, 0, "", "O(delta) persistence between checkpoints"},
	{"CheckpointJournalAppend", nsAtMost, 5000, "", "O(delta) persistence between checkpoints"},
	{"ClashObserveReannounce1k", allocsAtMost, 0, "", "a re-announcement's clash check"},
	{"ClashObserveReannounce10k", allocsAtMost, 0, "", "a re-announcement's clash check"},
	{"ClashObserveReannounce10k", ratioAtMost, 1.5, "ClashObserveReannounce1k", "the address index: O(1) in cache size"},
	{"ClashObserveBesideFlood10k", allocsAtMost, 0, "", "a session no defence names walks none"},
	{"ClashObserveBesideFlood10k", ratioAtMost, 1.5, "ClashObserveReannounce10k", "a session no defence names walks none"},
	{"ClashDueNothing10k", allocsAtMost, 0, "", "the earliest due time is kept: a quiet tick walks no defence"},
	{"ClashDueNothing10k", nsAtMost, 100, "", "the earliest due time is kept: a quiet tick walks no defence"},
	{"SessionKey", allocsAtMost, 1, "", "the fmt-free appender"},
	{"SessionKey", nsAtMost, 300, "", "the fmt-free appender"},
	{"SessionMarshalSDP", allocsAtMost, 1, "", "the fmt-free appender"},
	{"SessionMarshalSDP", nsAtMost, 2000, "", "the fmt-free appender"},
	{"SessionParseSDP", allocsAtMost, 4, "", "the Description, one string, one []string, one []Media"},
	{"SAPDecodeCompressed", allocsAtMost, 3, "", "the inflate state is pooled"},
	{"PayloadDigest", allocsAtMost, 0, "", "the refresh path's digest"},
	{"PayloadDigest", nsAtMost, 0.5, "", "per byte: 2 GB/s"},
	{"DirRefreshKnown1k", allocsAtMost, 0, "", "per 32-datagram batch, which decodes into a recycled slice"},
	{"DirRefreshKnown10k", allocsAtMost, 0, "", "per 32-datagram batch, which decodes into a recycled slice"},
	{"DirAdmitUnknown10k", allocsAsOther, 1, "DirAdmitUnknown1k", "the eviction order is kept, not rebuilt per call"},
	{"DirAdmitUnknown10k", ratioAtMost, 1.5, "DirAdmitUnknown1k", "the eviction order is kept, not rebuilt per call"},
	{"DirAdmitUnknownJournaled10k", allocsAsOther, 0, "DirAdmitUnknown10k", "journal records are framed into a reused batch buffer"},
	{"DirCreateSession10k", allocsAsOther, 1, "DirCreateSession1k", "the allocator state is kept, not rebuilt per call"},
	{"DirCreateSession10k", ratioAtMost, 1.5, "DirCreateSession1k", "the allocator state is kept, not rebuilt per call"},
	{"DirStep1k", allocsAtMost, 0, "", "a tick with nothing due"},
	{"DirStep10k", allocsAtMost, 0, "", "a tick with nothing due"},
	{"DirStep10k", ratioAtMost, 1.5, "DirStep1k", "the expiry bound: a quiet tick walks no entry"},
	{"DirStepBudgeted1k", allocsAtMost, 0, "", "the fresh count is kept, not taken"},
	{"DirStepBudgeted10k", allocsAtMost, 0, "", "the fresh count is kept, not taken"},
	{"DirStepBudgeted10k", ratioAtMost, 1.5, "DirStepBudgeted1k", "the fresh count is kept, not taken"},
	{"DirAdmitAtQuota10k", allocsAsOther, 0, "DirAdmitAtQuota1k", "a denial reads the origin's counts or the top of the order"},
	{"DirAdmitAtQuota10k", ratioAtMost, 1.5, "DirAdmitAtQuota1k", "a denial reads the origin's counts or the top of the order"},
	{"DirAdmitAtQuotaStale10k", allocsAsOther, 0, "DirAdmitAtQuotaStale1k", "a denial reads the origin's counts, not the stale entries"},
	{"DirAdmitAtQuotaStale10k", ratioAtMost, 1.5, "DirAdmitAtQuotaStale1k", "a denial reads the origin's counts, not the stale entries"},
	{"DirStepOwned256", allocsAtMost, 0, "", "a tick with nothing due"},
	{"DirStepOwned16k", allocsAtMost, 0, "", "a tick with nothing due"},
	{"DirStepOwned16k", ratioAtMost, 1.5, "DirStepOwned256", "the re-announcement bound: a quiet tick walks no owned session"},
	{"DirRecoverBudgeted10k", ratioAtMost, 1.2, "DirRecover10k", "the trim reads the order's counts: a budget-full recovery sorts nothing"},
	{"DirLearnClashing100k", ratioAtMost, 1.5, "DirLearnClashing10k", "scheduling a defence looks no pending one up"},
	{"SPTree1864", allocsAtMost, spTreeAllocs, "", "a tree's fixed arrays, at any graph size"},
	{"SPTreeGrid51200", allocsAtMost, spTreeAllocs, "", "a tree's fixed arrays, at any graph size"},
	{"SimVisibleAt1k", allocsAtMost, 0, "", "the view is copied into the world's scratch"},
	{"SimVisibleAt10k", allocsAtMost, 0, "", "the view is copied into the world's scratch"},
	{"SimClashes10k", allocsAtMost, 0, "", "a walk of one address's residents"},
	{"SimPlace10k", allocsAtMost, 0, "", "a churn placement reuses the world's chunks and view"},
}

// linuxBudgets are checked on linux reports only, where the receive path
// has recvmmsg.
var linuxBudgets = []budget{
	{"UDPRecvBatch", depthAtLeast, 10, "", "recvmmsg amortization"},
	{"UDPRecvBatch", nsAtMost, 1500, "", "the batched drain, per datagram"},
}

// budgetFailures checks r against the budget table, and names each row a
// rule reads that r does not carry.
func budgetFailures(r benchReport) []string {
	micro := make(map[string]microBenchResult, len(r.Micro))
	for _, m := range r.Micro {
		micro[m.Name] = m
	}
	rules := budgets
	if r.GOOS == "linux" {
		rules = append(slices.Clip(budgets), linuxBudgets...)
	}
	var fails []string
	missing := make(map[string]bool)
	for _, b := range rules {
		m, haveRow := micro[b.row]
		o, haveOther := micro[b.other]
		if haveRow && (b.other == "" || haveOther) {
			if fail := b.check(m, o); fail != "" {
				fails = append(fails, fmt.Sprintf("budget: %s (%s)", fail, b.why))
			}
			continue
		}
		for _, name := range []string{b.row, b.other} {
			if _, ok := micro[name]; name != "" && !ok && !missing[name] {
				missing[name] = true
				fails = append(fails, fmt.Sprintf("budget: micro %s missing from report", name))
			}
		}
	}
	return fails
}

// check returns how m breaks b, o being the row b reads m against, or ""
// if it does not.
func (b budget) check(m, o microBenchResult) string {
	switch b.kind {
	case allocsAtMost:
		if float64(m.AllocsOp) > b.limit {
			return fmt.Sprintf("%s %d allocs/op, budget ≤ %g", b.row, m.AllocsOp, b.limit)
		}
	case nsAtMost:
		if m.NsPerOp > b.limit {
			return fmt.Sprintf("%s %.4g ns/op, budget ≤ %g", b.row, m.NsPerOp, b.limit)
		}
	case ratioAtMost:
		if x := nsRatio(m, o); o.NsPerOp > 0 && x > b.limit {
			return fmt.Sprintf("%s %.4g ns/op is %.2fx %s's %.4g, budget ≤ %gx", b.row, m.NsPerOp, x, b.other, o.NsPerOp, b.limit)
		}
	case allocsAsOther:
		if d := m.AllocsOp - o.AllocsOp; float64(max(d, -d)) > b.limit {
			return fmt.Sprintf("%s %d allocs/op, %s %d, budget: the same (±%g)", b.row, m.AllocsOp, b.other, o.AllocsOp, b.limit)
		}
	case depthAtLeast:
		if m.BatchDepth < b.limit {
			return fmt.Sprintf("%s %.1f datagrams/syscall, budget ≥ %g", b.row, m.BatchDepth, b.limit)
		}
	}
	return ""
}

// nsRatio is a's ns_per_op over b's: when both carry their rounds, the
// median of the per-round ratios, so that a round the host slowed for one
// of them cannot decide it.
func nsRatio(a, b microBenchResult) float64 {
	if len(a.RoundsNs) == 0 || len(a.RoundsNs) != len(b.RoundsNs) || slices.Contains(b.RoundsNs, 0) {
		return a.NsPerOp / b.NsPerOp
	}
	ratios := make([]float64, len(a.RoundsNs))
	for i := range ratios {
		ratios[i] = a.RoundsNs[i] / b.RoundsNs[i]
	}
	return lowerMedian(ratios)
}

// lowerMedian is the middle of xs, the lower middle for an even count. It
// sorts xs.
func lowerMedian(xs []float64) float64 {
	slices.Sort(xs)
	return xs[(len(xs)-1)/2]
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
// A micro's new/old ratio is first divided by the lower median of that
// ratio over every micro both reports carry: the host's drift between the
// two runs cancels, and a regression of fewer than half the rows still
// shows. Metrics only present on one side are ignored — adding or retiring
// a benchmark must not fail the gate.
func compareReports(oldR, newR benchReport, tier string) (warnings, failures []string) {
	type metric struct {
		name              string
		oldV, newV, drift float64
	}
	var metrics []metric
	oldFig := make(map[string]float64, len(oldR.Figures))
	for _, f := range oldR.Figures {
		oldFig[f.ID] = f.WallMs
	}
	for _, f := range newR.Figures {
		if old, ok := oldFig[f.ID]; ok {
			metrics = append(metrics, metric{"figure " + f.ID + " wall_ms", old, f.WallMs, 1})
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
				metrics = append(metrics, metric{"occupancy " + o.key() + " wall_ms", old.WallMs, o.WallMs, 1})
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
	var micros []metric
	var drifts []float64
	for _, m := range newR.Micro {
		old, ok := oldMicro[m.Name]
		if !ok {
			continue
		}
		if is, was := allocRange(m), allocRange(old); is[0]-was[1] > max(is[1]-is[0], was[1]-was[0]) {
			warnings = append(warnings, fmt.Sprintf("micro %s allocs_per_op grew %d -> %d (its rounds %d–%d, the baseline's %d–%d)",
				m.Name, old.AllocsOp, m.AllocsOp, is[0], is[1], was[0], was[1]))
		}
		if old.NsPerOp > 0 && m.NsPerOp > 0 {
			micros = append(micros, metric{"micro " + m.Name + " ns_per_op", old.NsPerOp, m.NsPerOp, 0})
			drifts = append(drifts, m.NsPerOp/old.NsPerOp)
		}
	}
	if len(drifts) > 0 {
		drift := lowerMedian(drifts)
		for _, m := range micros {
			m.drift = drift
			metrics = append(metrics, m)
		}
	}
	for _, m := range metrics {
		if m.oldV <= 0 {
			continue // nothing meaningful to ratio against
		}
		ratio := m.newV / m.oldV / m.drift
		line := fmt.Sprintf("%s: %.2f -> %.2f (%.2fx)", m.name, m.oldV, m.newV, ratio)
		if m.drift != 1 {
			line = fmt.Sprintf("%s: %.2f -> %.2f (%.2fx over the micros' median drift of %.2fx)", m.name, m.oldV, m.newV, ratio, m.drift)
		}
		switch {
		case ratio > failRatio:
			failures = append(failures, line)
		case ratio > 1+tolerancePct/100:
			warnings = append(warnings, line)
		}
	}
	return warnings, failures
}

// allocRange is the fewest and the most allocs/op among m's rounds, or its
// one figure twice for a report that does not carry them. A row warns when
// the new run's fewest exceeds the baseline's most by more than either
// run's own range: a count that jitters from round to round (a sync.Pool
// miss when the goroutine changes P) jitters as much from run to run, and
// a row whose rounds agree warns on one more.
func allocRange(m microBenchResult) [2]int64 {
	if len(m.RoundsAllocs) == 0 {
		return [2]int64{m.AllocsOp, m.AllocsOp}
	}
	return [2]int64{slices.Min(m.RoundsAllocs), slices.Max(m.RoundsAllocs)}
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
			fmt.Printf("%-26s %12.1f ns/op %5.2f spread %7d B/op %6d allocs/op", m.Name, m.NsPerOp, m.Spread, m.BytesOp, m.AllocsOp)
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
