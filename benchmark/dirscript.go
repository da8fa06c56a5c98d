package main

import (
	"fmt"
	"net/netip"
	"time"

	"sessiondir"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/storage"
	"sessiondir/internal/transport"
)

// call is one step of a Directory script. Kind says which exported
// method the driver invokes; the other fields are that call's inputs,
// generated once from the seed and shared by every rep.
type call struct {
	kind    op
	advance time.Duration       // virtual time added before the call
	msgs    []transport.Message // HandleBatch input
	descs   []*session.Description
	key     string // WithdrawSession input
	// clashWith, when set on a HandleBatch call, makes the driver forge a
	// foreign announcement (and its deletion) at whatever address the
	// program gave the most recently created session: the address is the
	// program's choice, so this one input is built at replay time, before
	// the clock starts.
	clashWith *session.Description
}

// dirScript is a workload over one Directory.
type dirScript struct {
	name string
	// Directory configuration under test (budgets; everything else fixed).
	maxSessions, maxPerOrigin int
	originRate                float64
	// snapshot holds the files of a cache checkpoint to recover from in
	// set-up; nil means no cache store (journaling off). phases is what the
	// snapshot's builder heard, kept so the shadow layers can hear it too.
	snapshot map[string][]byte
	phases   []snapshotPhase
	// preload is handled in set-up, before the measured phase.
	preload [][]transport.Message
	calls   []call
	ops     int // operations per rep (datagrams or sessions created)
	latency op  // the call kind whose service times feed the percentiles
	// expectations checked against the outcome
	malformed      int // injected malformed datagrams, set-up included
	wantPopulation int // live sessions expected at the end, ±2 %
	wantMix        func(fp *fingerprint) []string
}

func (s *dirScript) numCalls() int        { return len(s.calls) }
func (s *dirScript) callOp(i int) op      { return s.calls[i].kind }
func (s *dirScript) latencyOp() op        { return s.latency }
func (s *dirScript) opsPerRep() int       { return s.ops }
func (s *dirScript) workloadName() string { return s.name }

// dirRep is one replay of a dirScript on a fresh Directory.
type dirRep struct {
	s     *dirScript
	clk   *vclock
	tx    *recTransport
	fs    *countFS
	alloc *countAlloc
	d     *sessiondir.Directory
	store *sessiondir.CacheStore
	sh    *shadow // layer probes, traced reps only

	created     []*session.Description // output of the current create call
	lastCreated *session.Description
	createErrs  int
	storeErrs   int
	levelSteps  [3]uint64
	events      callEvents
}

// callEvents is what Config.OnEvent reported during the current call; the
// probes use it to keep the shadow layers at the real population.
type callEvents struct {
	learned map[string]bool
	evicted []string
}

func (s *dirScript) newRep(tr *tracer) (rep, []setupStep, error) {
	r := &dirRep{s: s, clk: &vclock{t: epoch}, tx: &recTransport{tr: tr}}
	var steps []setupStep
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		steps = append(steps, setupStep{name, time.Since(t0)})
		return err
	}

	if err := timed("new", func() error {
		r.alloc = &countAlloc{Allocator: defaultAllocator(), tr: tr}
		cfg := sessiondir.Config{
			Origin:       selfOrigin,
			Transport:    r.tx,
			Allocator:    r.alloc,
			Clock:        r.clk.Now,
			MaxSessions:  s.maxSessions,
			MaxPerOrigin: s.maxPerOrigin,
			OriginRate:   s.originRate,
			Shards:       dirShards,
			Seed:         dirSeed,
		}
		if tr != nil {
			r.sh = newShadow(s, tr)
			r.events.learned = map[string]bool{}
			cfg.OnEvent = r.onEvent
		}
		var err error
		r.d, err = sessiondir.New(cfg)
		return err
	}); err != nil {
		return nil, nil, err
	}

	if s.snapshot != nil {
		mem := storage.NewMemFS()
		for name, data := range s.snapshot {
			if err := mem.WriteFile(name, data); err != nil {
				return nil, nil, err
			}
		}
		r.fs = &countFS{FS: mem, tr: tr}
		if err := timed("recover", func() error {
			var err error
			r.store, _, err = sessiondir.OpenCacheStore(r.fs, cacheBase, r.d)
			return err
		}); err != nil {
			return nil, nil, err
		}
		// The store refuses appends until its first checkpoint.
		if err := timed("first_checkpoint", r.store.Checkpoint); err != nil {
			return nil, nil, err
		}
		if r.sh != nil {
			if err := r.sh.restore(s.phases); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(s.preload) > 0 {
		if err := timed("preload", func() error {
			for _, ms := range s.preload {
				r.d.HandleBatch(ms)
				if r.sh != nil {
					r.sh.handleBatch(ms, r.clk.Now(), &r.events, 0)
					r.resetEvents()
				}
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
	}
	// Per-layer counts cover the measured phase only, like the spans.
	if r.fs != nil {
		r.fs.writes, r.fs.syncs, r.fs.journalBytes, r.fs.journalSyncs = 0, 0, 0, 0
	}
	if r.sh != nil {
		r.sh.counts = layerCounts{}
	}
	return r, steps, nil
}

func (r *dirRep) onEvent(e sessiondir.Event) {
	switch e.Kind {
	case sessiondir.EventSessionLearned:
		r.events.learned[e.Key] = true
	case sessiondir.EventSessionEvicted:
		r.events.evicted = append(r.events.evicted, e.Key)
	case sessiondir.EventAddressChanged:
		r.sh.moved(e.Desc, r.clk.Now())
	}
}

func (r *dirRep) resetEvents() {
	clear(r.events.learned)
	r.events.evicted = r.events.evicted[:0]
}

// prep does the untimed part of call i: moving the clock and, for a
// forged clash, building the datagrams that depend on the program's own
// address choice.
func (r *dirRep) prep(i int) error {
	c := &r.s.calls[i]
	r.clk.advance(c.advance)
	if c.clashWith == nil {
		return nil
	}
	if r.lastCreated == nil {
		return fmt.Errorf("call %d forges a clash before any session exists", i)
	}
	forged := *c.clashWith
	forged.Group, forged.TTL = r.lastCreated.Group, r.lastCreated.TTL
	ann, err := wireOf(&forged, sap.Announce, false)
	if err != nil {
		return err
	}
	del, err := wireOf(&forged, sap.Delete, false)
	if err != nil {
		return err
	}
	c.msgs = c.msgs[:0]
	c.msgs = append(c.msgs, transport.Message{Data: ann}, transport.Message{Data: del})
	return nil
}

// do is the timed part: exactly one call into the program.
func (r *dirRep) do(i int) {
	c := &r.s.calls[i]
	switch c.kind {
	case opHandleBatch:
		r.d.HandleBatch(c.msgs)
	case opCreate:
		out, err := r.d.CreateSession(c.descs[0])
		r.created = r.created[:0]
		if err != nil {
			r.createErrs++
			return
		}
		r.created = append(r.created, out)
		r.lastCreated = out
	case opCreateBatch:
		out, _ := r.d.CreateSessionBatch(c.descs) // a shortfall is counted below
		r.created = out
		r.createErrs += len(c.descs) - len(out)
		if len(out) > 0 {
			r.lastCreated = out[len(out)-1]
		}
	case opWithdraw:
		if err := r.d.WithdrawSession(c.key); err != nil {
			r.createErrs++
		}
	case opStep:
		r.d.Step(r.clk.Now())
	case opCheckpoint:
		if err := r.store.Checkpoint(); err != nil {
			r.storeErrs++
		}
	}
}

// after is untimed. It samples the overload tier right after each Step
// (Step has just recomputed it at this same instant, so reading it back
// cannot change behaviour) and, on a traced rep, runs the layer probes.
func (r *dirRep) after(i int) {
	c := &r.s.calls[i]
	if c.kind == opStep && r.s.maxSessions > 0 {
		r.levelSteps[r.d.DegradationLevel()]++
	}
	if r.sh == nil {
		return
	}
	now := r.clk.Now()
	switch c.kind {
	case opHandleBatch:
		r.sh.handleBatch(c.msgs, now, &r.events, r.d.Metrics().DegradedLearns)
	case opCreate, opCreateBatch:
		r.sh.create(c.descs, r.created, now)
	case opWithdraw:
		r.sh.withdraw(c.key)
	case opStep:
		r.sh.step(now)
	}
	r.resetEvents()
}

func (r *dirRep) finish() (outcome, error) {
	m := r.d.Metrics()
	fp := fingerprint{
		Metrics:     m,
		CacheSize:   uint64(r.d.CacheSize()),
		Owned:       uint64(len(r.d.OwnSessions())),
		SentDgrams:  r.tx.dgrams,
		SentBytes:   r.tx.bytes,
		SentCRC:     uint64(r.tx.crc),
		Level0Steps: r.levelSteps[0],
		Level1Steps: r.levelSteps[1],
		Level2Steps: r.levelSteps[2],
	}
	out := outcome{fp: fp, resident: int(fp.CacheSize + fp.Owned)}

	// Failed operations: anything the script did not schedule.
	out.failed = r.createErrs + r.storeErrs
	if d := int(m.PacketsMalformed) - r.s.malformed; d != 0 {
		out.failed += abs(d)
		out.problems = append(out.problems, fmt.Sprintf("malformed count %d, injected %d", m.PacketsMalformed, r.s.malformed))
	}
	if r.store != nil {
		st := r.store.Stats()
		out.failed += int(st.AppendErrors + st.CheckpointErrors)
		out.journalRecords = st.Appended
		if err := r.store.Close(); err != nil {
			return out, err
		}
	}

	live := len(r.d.Sessions()) - int(fp.Owned)
	if want := r.s.wantPopulation; want > 0 && abs(live-want)*50 > want {
		out.problems = append(out.problems, fmt.Sprintf("live population %d, want %d ± 2%%", live, want))
	}
	if r.s.wantMix != nil {
		out.problems = append(out.problems, r.s.wantMix(&fp)...)
	}
	if r.sh != nil {
		out.problems = append(out.problems, r.sh.check(r.d)...)
		out.layer = r.layerCounts()
	}
	r.d.Close()
	return out, nil
}

// layerCounts gathers the counts the interposers and the shadow layers
// kept during a traced rep.
func (r *dirRep) layerCounts() layerCounts {
	lc := r.sh.counts
	lc.sendDgrams, lc.sendBytes = r.tx.dgrams, r.tx.bytes
	lc.allocCalls, lc.allocViewLen, lc.allocFailed = r.alloc.calls, r.alloc.viewLen, r.alloc.failed
	lc.allocBatchCalls, lc.allocBatchAddrs = r.alloc.batchCalls, r.alloc.batchAddrs
	if r.fs != nil {
		lc.fsWrites, lc.fsSyncs = r.fs.writes, r.fs.syncs
		lc.journalBytes, lc.journalBatches = r.fs.journalBytes, r.fs.journalSyncs
	}
	lc.announceSize = uint64(r.d.CacheSize())
	return lc
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// messagesOf wraps datagrams for HandleBatch.
func messagesOf(dgrams [][]byte) []transport.Message {
	ms := make([]transport.Message, len(dgrams))
	for i, d := range dgrams {
		ms[i] = transport.Message{Data: d}
	}
	return ms
}

// buildSnapshot runs a builder directory through the given phases — each
// a moment in virtual time and the announcements heard then — and
// checkpoints it, returning the checkpoint's files. The measured reps
// recover from copies of these files, so every rep starts from the same
// cache with the same LastHeard stamps.
func buildSnapshot(phases []snapshotPhase) (map[string][]byte, error) {
	clk := &vclock{t: epoch}
	d, err := sessiondir.New(sessiondir.Config{
		Origin: selfOrigin, Transport: &recTransport{}, Allocator: defaultAllocator(),
		Clock: clk.Now, Shards: dirShards, Seed: dirSeed,
	})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	mem := storage.NewMemFS()
	store, _, err := sessiondir.OpenCacheStore(mem, cacheBase, d)
	if err != nil {
		return nil, err
	}
	for _, ph := range phases {
		clk.t = epoch.Add(ph.at)
		for lo := 0; lo < len(ph.wires); lo += 32 {
			d.HandleBatch(messagesOf(ph.wires[lo:min(lo+32, len(ph.wires))]))
		}
	}
	if err := store.Checkpoint(); err != nil {
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	names, err := mem.List()
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(names))
	for _, name := range names {
		if files[name], err = mem.ReadFile(name); err != nil {
			return nil, err
		}
	}
	return files, nil
}

type snapshotPhase struct {
	at    time.Duration // relative to epoch, negative = before the run
	wires [][]byte
}

// foreignOrigin announces the forged clashes of create_churn.
var foreignOrigin = netip.AddrFrom4([4]byte{192, 0, 2, 77})
