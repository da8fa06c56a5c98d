package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"sessiondir"
	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
)

// Fixed parts of the program's configuration. The program under test
// never sees the workload seed: it gets the generated inputs and these
// constants.
const (
	dirShards = 2
	dirSeed   = 0x5d01998
	cacheBase = "cache"
	simSeed   = 0x51a0cc
	topoSeed  = 1998
)

// defaultAllocator is the allocator a Directory picks when given none
// (AIPR-1 over the SAP dynamic block), built here so it can be wrapped.
func defaultAllocator() allocator.Allocator {
	return allocator.NewAdaptive(mcast.SAPDynamicSpace().Size,
		allocator.AdaptiveConfig{GapFraction: 0.2, Name: "AIPR-1 (20% gap)"})
}

// script is a workload's generated input plus how to replay it.
type script interface {
	workloadName() string
	numCalls() int
	callOp(i int) op
	latencyOp() op
	opsPerRep() int
	// newRep builds the program under test in the script's initial state.
	// Each set-up step is timed on its own.
	newRep(tr *tracer) (rep, []setupStep, error)
}

// rep is one replay in progress.
type rep interface {
	prep(i int) error // untimed: inputs that can only be built at replay time
	do(i int)         // timed: one call into the program
	after(i int)      // untimed: sampling and, on a traced rep, layer probes
	finish() (outcome, error)
}

type setupStep struct {
	name string
	d    time.Duration
}

// fingerprint is the observable outcome of one rep. Every rep of a script
// must produce the same one; for the recorded seeds it must also equal
// the one in fingerprints.json.
type fingerprint struct {
	sessiondir.Metrics
	CacheSize, Owned                 uint64
	SentDgrams, SentBytes, SentCRC   uint64
	Level0Steps, Level1Steps         uint64
	Level2Steps                      uint64
	Placed, FillClashes              uint64
	ChurnClashes, Exhausted, AddrCRC uint64
}

// outcome is what a finished rep reports.
type outcome struct {
	fp             fingerprint
	resident       int // sessions resident at the end, for memory per session
	failed         int // operations that failed without the script scheduling it
	problems       []string
	journalRecords uint64
	layer          layerCounts // traced reps only
}

// repStats is what the harness measured around one rep.
type repStats struct {
	setup     []setupStep
	wall      time.Duration // measured phase as it ran, noise included
	mallocs   uint64
	bytes     uint64
	heapDelta int64 // live heap after the phase minus before the program was built
	out       outcome
}

// runRep builds a fresh program, replays the script once, and writes each
// call's service time into times.
func runRep(s script, tr *tracer, times []int64) (repStats, error) {
	var st repStats
	var before, start, end, after runtime.MemStats
	// Two collections: the first moves the previous rep's pooled buffers
	// to the pools' victim caches, the second frees them, so that they are
	// not counted in the baseline and then released during this rep.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, setup, err := s.newRep(tr)
	if err != nil {
		return st, fmt.Errorf("set-up: %w", err)
	}
	st.setup = setup
	runtime.ReadMemStats(&start)
	t0 := time.Now()
	for i := range times {
		if err := r.prep(i); err != nil {
			return st, err
		}
		tr.beginCall(i, s.callOp(i))
		c0 := time.Now()
		r.do(i)
		times[i] = int64(time.Since(c0))
		tr.endCall()
		r.after(i)
	}
	st.wall = time.Since(t0)
	runtime.ReadMemStats(&end)
	runtime.GC()
	runtime.ReadMemStats(&after) // r, and the program it holds, is still live here
	st.mallocs = end.Mallocs - start.Mallocs
	st.bytes = end.TotalAlloc - start.TotalAlloc
	st.heapDelta = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	st.out, err = r.finish()
	return st, err
}

// options are the knobs of one workload run.
type options struct {
	budget time.Duration // how long to keep replaying
	trace  bool
	// The smoke test's knobs: tiny script sizes (which have no recorded
	// fingerprints) and a fixed number of replays.
	tiny      bool
	fixedReps int
}

// result is everything one workload run produced.
type result struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Reps        int                `json:"reps"`
	Correct     bool               `json:"correct"`
	Problems    []string           `json:"problems,omitempty"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	EndToEnd    map[string]float64 `json:"end_to_end"`
	PerLayer    map[string]float64 `json:"per_layer,omitempty"`
	Shares      []layerShare       `json:"layer_shares,omitempty"`
	Fingerprint fingerprint        `json:"fingerprint"`
	spans       []span
}

// runWorkload replays s until the stop rule is satisfied and computes
// the end-to-end metrics; with opt.trace it adds one traced rep and the
// per-layer metrics.
func runWorkload(s script, seed uint64, genTime time.Duration, opt options) (*result, error) {
	n := s.numCalls()
	best := make([]int64, n)
	for i := range best {
		best[i] = math.MaxInt64
	}
	times := make([]int64, n)
	var (
		setupBest              []int64
		setupNames             []string
		sums                   []int64
		walls, allocs, bytesOp []float64
		memPerSession          []float64
		res                    = &result{Workload: s.workloadName(), Seed: seed, Correct: true}
		lastJournal            uint64
	)
	problem := func(format string, args ...any) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}

	rt0 := readRuntime()
	began := time.Now()
	overtime := 0
	for {
		st, err := runRep(s, nil, times)
		if err != nil {
			return nil, err
		}
		pointwiseMin(best, times)
		sums = append(sums, sum(best))
		if setupBest == nil {
			for _, step := range st.setup {
				setupBest = append(setupBest, int64(step.d))
				setupNames = append(setupNames, step.name)
			}
		} else {
			for i, step := range st.setup {
				setupBest[i] = min(setupBest[i], int64(step.d))
			}
		}
		ops := float64(s.opsPerRep())
		walls = append(walls, st.wall.Seconds())
		allocs = append(allocs, float64(st.mallocs)/ops)
		bytesOp = append(bytesOp, float64(st.bytes)/ops)
		memPerSession = append(memPerSession, float64(st.heapDelta)/float64(max(st.out.resident, 1)))

		if res.Reps == 0 {
			res.Fingerprint = st.out.fp
			for _, p := range st.out.problems {
				problem("%s", p)
			}
		} else if st.out.fp != res.Fingerprint {
			problem("rep %d's fingerprint differs from rep 0's: %+v vs %+v", res.Reps, st.out.fp, res.Fingerprint)
		}
		res.Reps++
		res.Attempted += s.opsPerRep()
		res.Failed += st.out.failed
		lastJournal = st.out.journalRecords

		if opt.fixedReps > 0 {
			if res.Reps >= opt.fixedReps {
				break
			}
			continue
		}
		elapsed := time.Since(began)
		if !needAnotherRep(sums, elapsed, opt.budget, overtime) {
			break
		}
		if elapsed >= opt.budget {
			overtime++
		}
	}
	rt1 := readRuntime()

	if want, ok := recordedFingerprint(s.workloadName(), seed); ok && !opt.tiny && want != res.Fingerprint {
		problem("fingerprint differs from the recorded one for seed %d: got %+v, recorded %+v", seed, res.Fingerprint, want)
	}
	if res.Failed > 0 {
		problem("%d of %d operations failed", res.Failed, res.Attempted)
	}

	isLatency := func(i int) bool { return s.callOp(i) == s.latencyOp() }
	tm := estimate(best, isLatency, s.opsPerRep(), setupBest)
	res.EndToEnd = map[string]float64{
		"setup_s":               tm.setupS,
		"throughput_per_s":      tm.throughputPS,
		"latency_p50_us":        tm.p50us,
		"latency_p90_us":        tm.p90us,
		"allocs_per_op":         median(allocs),
		"bytes_per_op":          median(bytesOp),
		"mem_bytes_per_session": median(memPerSession),
	}
	if !opt.trace {
		return res, nil
	}

	// One more rep with tracing on. Its call times are not folded into
	// the estimate: they carry the tracing overhead, which is reported.
	tr := newTracer(1 << 19)
	st, err := runRep(s, tr, times)
	if err != nil {
		return nil, err
	}
	if st.out.fp != res.Fingerprint {
		problem("traced rep's fingerprint differs: %+v vs %+v", st.out.fp, res.Fingerprint)
	}
	for _, p := range st.out.problems {
		problem("traced rep: %s", p)
	}
	res.spans = tr.spans
	lc := st.out.layer
	pl := layerMetrics(tr.spans, &lc)
	q1, q3 := quartiles(walls)
	pl["failed_share"] = float64(res.Failed) / float64(res.Attempted)
	fp := &res.Fingerprint
	pl["admission.evictions"] = float64(fp.Evictions)
	pl["admission.shed"] = float64(fp.Shed)
	pl["admission.degraded_learns"] = float64(fp.DegradedLearns)
	pl["clash.moves"] = float64(fp.ClashAddressChanges)
	pl["clash.defenses_third"] = float64(fp.ClashDefensesThird)
	pl["directory.latency_p99_us"] = tm.p99us
	pl["storage.append.records"] = float64(lastJournal)
	for i, name := range setupNames {
		switch name {
		case "recover":
			pl["storage.recover.ms"] = float64(setupBest[i]) / 1e6
		case "reach_cache":
			pl["topology.reach_cache.build_ms"] = float64(setupBest[i]) / 1e6
		}
	}
	pl["runtime.gc_cycles"] = float64(rt1.cycles-rt0.cycles) / float64(res.Reps)
	pl["runtime.gc_cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.busyCPU-rt0.busyCPU)
	pl["runtime.cpu_s"] = (rt1.busyCPU - rt0.busyCPU) / float64(res.Reps)
	pl["bench.rep_wall_s"] = median(walls)
	pl["bench.rep_wall_spread"] = ratio(q3-q1, median(walls))
	pl["bench.reps"] = float64(res.Reps)
	pl["bench.gen_s"] = genTime.Seconds()
	pl["bench.trace_overhead_ratio"] = ratio(float64(sum(times)), float64(sum(best)))
	pl["bench.latency_calls"] = float64(tm.latencyCalls)
	for _, d := range perLayer {
		if _, ok := pl[d.Name]; !ok {
			pl[d.Name] = 0
		}
	}
	res.PerLayer = pl
	res.Shares = layerShares(tr.spans)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeReading is the Go runtime's own account of collections and CPU
// time so far (runtime/metrics; the CPU classes are the runtime's
// estimates, good enough for a share).
type runtimeReading struct {
	cycles         uint64
	gcCPU, busyCPU float64 // seconds; busy = total minus idle
}

func readRuntime() runtimeReading {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	seconds := func(s metrics.Sample) float64 {
		if s.Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s.Value.Float64()
	}
	var r runtimeReading
	if samples[0].Value.Kind() == metrics.KindUint64 {
		r.cycles = samples[0].Value.Uint64()
	}
	r.gcCPU = seconds(samples[1])
	r.busyCPU = seconds(samples[2]) - seconds(samples[3])
	return r
}

// opStat is the count and summed duration of one op's spans.
type opStat struct {
	n  uint64
	ns int64
}

func (o opStat) per(unitNS float64) float64 {
	if o.n == 0 {
		return 0
	}
	return float64(o.ns) / float64(o.n) / unitNS
}

// spanStats sums spans by op over the measured phase (set-up spans carry
// Call -1 and are skipped).
func spanStats(spans []span) [numOps]opStat {
	var st [numOps]opStat
	for _, s := range spans {
		if s.Call < 0 {
			continue
		}
		st[s.Op].n++
		st[s.Op].ns += s.End - s.Start
	}
	return st
}

// selfTimes returns, per directory call kind, the summed call time and
// the summed self time: the call's span minus the interposer spans inside
// it minus the probe spans attributed to it. overshoot sums, over calls
// whose children and probes exceed the call, the excess — time the
// probes claim that the call did not have.
func selfTimes(spans []span) (callNS, selfNS [numCallOps]int64, calls [numCallOps]uint64, overshoot int64) {
	children := map[int32]int64{} // call span index → time claimed by children and probes
	for _, s := range spans {
		if s.Call >= 0 && s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		if s.Call < 0 || s.Parent >= 0 || s.Op >= numCallOps {
			continue
		}
		d := s.End - s.Start
		self := d - children[int32(i)]
		if self < 0 {
			overshoot -= self
			self = 0
		}
		callNS[s.Op] += d
		selfNS[s.Op] += self
		calls[s.Op]++
	}
	return
}

// layerShare is one row of the share table: how much of the measured
// phase's call time a layer accounts for.
type layerShare struct {
	Layer string  `json:"layer"`
	BusyS float64 `json:"busy_s"`
	Share float64 `json:"share"`
}

// layerShares folds spans into per-layer busy time over total call time.
// Nothing contends with the single caller, so a layer's share is the most
// a faster version of it can save.
func layerShares(spans []span) []layerShare {
	st := spanStats(spans)
	callNS, selfNS, _, _ := selfTimes(spans)
	var total int64
	busy := map[string]int64{}
	for o := op(0); o < numCallOps; o++ {
		total += callNS[o]
		if o != opPlace {
			busy["directory (self)"] += selfNS[o]
		}
	}
	for o := numCallOps; o < numOps; o++ {
		layer, _, _ := strings.Cut(opNames[o], ".")
		busy[layer] += st[o].ns
	}
	busy["sim (self)"] = selfNS[opPlace]
	var out []layerShare
	for layer, ns := range busy {
		if ns > 0 {
			out = append(out, layerShare{layer, float64(ns) / 1e9, ratio(float64(ns), float64(total))})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BusyS != out[j].BusyS {
			return out[i].BusyS > out[j].BusyS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// layerMetrics computes the per-layer metrics from a traced rep's spans
// and counts.
func layerMetrics(spans []span, lc *layerCounts) map[string]float64 {
	st := spanStats(spans)
	callNS, selfNS, calls, overshoot := selfTimes(spans)
	f := func(x uint64) float64 { return float64(x) }
	const us, ms = 1e3, 1e6

	var dirCallNS, dirSelfNS int64
	var dirCalls uint64
	for o := op(0); o < numCallOps; o++ {
		if o == opPlace {
			continue
		}
		dirCallNS += callNS[o]
		dirSelfNS += selfNS[o]
		dirCalls += calls[o]
	}
	sendCalls := st[opTransportSend].n
	allocBusy := opStat{st[opAllocate].n + st[opAllocateBatch].n, st[opAllocate].ns + st[opAllocateBatch].ns}
	appendNS := float64(0)
	if lc.journalBatches > 0 {
		// A journal append is one write and one sync of the journal file;
		// snapshot writes happen only inside Checkpoint calls.
		appendNS = float64(journalSpanNS(spans)) / f(lc.journalBatches)
	}

	return map[string]float64{
		"transport.send.dgrams":  f(lc.sendDgrams),
		"transport.send.bytes":   f(lc.sendBytes),
		"transport.send.busy_us": float64(st[opTransportSend].ns) / us,

		"sap.decode.count":            f(st[opSapDecode].n),
		"sap.decode.ns_per_op":        st[opSapDecode].per(1),
		"sap.decode.failed":           f(lc.decodeFailed),
		"sap.decode.compressed_share": ratio(f(lc.decodeCompressed), f(st[opSapDecode].n)),
		"sap.marshal.ns_per_op":       st[opSapMarshal].per(1),

		"session.parse.count":           f(st[opSessionParse].n),
		"session.parse.ns_per_op":       st[opSessionParse].per(1),
		"session.parse.ns_per_op_small": ratio(f(lc.parseSmallNS), f(lc.parseSmallCount)),
		"session.marshal.ns_per_op":     st[opSessionMarshal].per(1),

		"admission.allow.count":            f(st[opAdmissionAllow].n),
		"admission.allow.ns_per_op":        st[opAdmissionAllow].per(1),
		"admission.allow.denied":           f(lc.allowDenied),
		"admission.plan.count":             f(st[opAdmissionPlan].n),
		"admission.plan.us_per_op":         st[opAdmissionPlan].per(us),
		"admission.plan.candidates_per_op": ratio(f(lc.planCandidates), f(st[opAdmissionPlan].n)),
		"admission.plan.admit_ratio":       ratio(f(lc.planAdmitted), f(st[opAdmissionPlan].n)),

		"announce.observe.count":            f(st[opAnnounceObserve].n),
		"announce.observe.ns_per_op":        st[opAnnounceObserve].per(1),
		"announce.observe.fresh_ratio":      ratio(f(lc.observeFresh), f(st[opAnnounceObserve].n)),
		"announce.peek.ns_per_op":           st[opAnnouncePeek].per(1),
		"announce.live_scan.count":          f(st[opAnnounceLive].n),
		"announce.live_scan.us_per_op":      st[opAnnounceLive].per(us),
		"announce.live_scan.entries_per_op": ratio(f(lc.liveEntries), f(st[opAnnounceLive].n)),
		"announce.all_grouped.us_per_op":    st[opAnnounceAllGrouped].per(us),
		"announce.expire.us_per_op":         st[opAnnounceExpire].per(us),
		"announce.size":                     f(lc.announceSize),

		"clash.observe.count":                  f(st[opClashObserve].n),
		"clash.observe.us_per_op":              st[opClashObserve].per(us),
		"clash.observe.entries_scanned_per_op": ratio(f(lc.clashScanned), f(st[opClashObserve].n)),
		"clash.observe.actions":                f(lc.clashActions),
		"clash.due.us_per_op":                  st[opClashDue].per(us),

		"allocator.allocate.count":       f(lc.allocCalls),
		"allocator.allocate.us_per_op":   allocBusy.per(us),
		"allocator.allocate.view_len":    ratio(f(lc.allocViewLen), f(lc.allocCalls+lc.allocBatchCalls)),
		"allocator.allocate.failed":      f(lc.allocFailed),
		"allocator.batch.addrs_per_call": ratio(f(lc.allocBatchAddrs), f(lc.allocBatchCalls)),

		"storage.append.bytes":        f(lc.journalBytes),
		"storage.append.us_per_batch": appendNS / us,
		"storage.compact.ms":          st[opCheckpoint].per(ms),
		"storage.fs.writes":           f(lc.fsWrites),
		"storage.fs.syncs":            f(lc.fsSyncs),

		"directory.handle_batch.us_per_call":    st[opHandleBatch].per(us),
		"directory.create.us_per_call":          st[opCreate].per(us),
		"directory.create_batch.us_per_session": ratio(float64(st[opCreateBatch].ns)/us, f(lc.allocBatchAddrs)),
		"directory.withdraw.us_per_call":        st[opWithdraw].per(us),
		"directory.step.us_per_call":            st[opStep].per(us),
		"directory.self_us_per_call":            ratio(float64(dirSelfNS)/us, f(dirCalls)),
		"directory.self_share":                  ratio(float64(dirSelfNS), float64(dirCallNS)),
		"directory.overattributed_share":        ratio(float64(overshoot), float64(dirCallNS+callNS[opPlace])),
		"directory.outbox_dgrams_per_call":      ratio(f(lc.sendDgrams), f(sendCalls)),
		"directory.spans":                       f(dirCalls),

		"sim.visible_at.us_per_op":      st[opSimVisibleAt].per(us),
		"sim.visible_at.entries_per_op": ratio(f(lc.simVisibleEntries), f(st[opSimVisibleAt].n)),
		"sim.clashes.us_per_op":         st[opSimClashes].per(us),
		"sim.add_remove.us_per_op":      st[opSimAddRemove].per(us),
		"sim.fill_clashes":              f(lc.simFillClashes),
		"sim.churn_clashes":             f(lc.simChurnClashes),
		"sim.exhausted":                 f(lc.simExhausted),
	}
}

// journalSpanNS sums the filesystem spans that ran outside Checkpoint
// calls: during the measured phase those are exactly the journal appends.
func journalSpanNS(spans []span) int64 {
	var ns int64
	for _, s := range spans {
		if s.Call < 0 || s.Parent < 0 || (s.Op != opFSWrite && s.Op != opFSSync) {
			continue
		}
		if spans[s.Parent].Op != opCheckpoint {
			ns += s.End - s.Start
		}
	}
	return ns
}
