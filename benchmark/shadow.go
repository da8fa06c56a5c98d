package main

import (
	"fmt"
	"time"

	"sessiondir"
	"sessiondir/internal/admission"
	"sessiondir/internal/announce"
	"sessiondir/internal/clash"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/transport"
)

// shadow holds private instances of the layers a Directory composes
// without a seam — the SAP and SDP codecs, the admission controller, the
// sharded announcement cache, the clash tracker. On a traced rep, after
// each real call, the call's own inputs are pushed through these
// instances' exported functions with a span around each, in the order the
// directory would have used them. The time a probe takes is an estimate
// of the time the same layer took inside the call; what is left of the
// call after subtracting probes and interposer spans is the directory's
// self time.
//
// The shadow does not make the directory's decisions again. Which unknown
// sessions were admitted, which entries were evicted, and where owned
// sessions moved is taken from Config.OnEvent, so the shadow cache stays
// at the real population and every probe runs at the real working-set
// size.
type shadow struct {
	tr      *tracer
	cache   *announce.Sharded
	admit   *admission.Controller
	tracker *clash.Tracker
	space   mcast.AddrSpace
	budgets bool // a session budget is set, so unknown sessions are planned
	journal bool // fresh observations are also encoded for the journal
	owned   map[string]*session.Description

	seenDegraded uint64 // directory's DegradedLearns counter at the last call
	counts       layerCounts
}

// layerCounts are the per-layer counts that are not span counts: the
// interposers' tallies and what the probes saw.
type layerCounts struct {
	sendDgrams, sendBytes                           uint64
	allocCalls, allocViewLen, allocFailed           uint64
	allocBatchCalls, allocBatchAddrs                uint64
	fsWrites, fsSyncs, journalBytes, journalBatches uint64
	decodeFailed, decodeCompressed                  uint64
	parseSmallNS, parseSmallCount                   uint64
	allowDenied, planCandidates, planAdmitted       uint64
	observeFresh, liveEntries, announceSize         uint64
	clashScanned, clashActions                      uint64
	simVisibleEntries                               uint64
	simFillClashes, simChurnClashes, simExhausted   uint64
}

// smallSDP is the payload size below which a parse counts towards
// session.parse.ns_per_op_small.
const smallSDP = 300

func newShadow(s *dirScript, tr *tracer) *shadow {
	seed := uint64(dirSeed)
	return &shadow{
		tr:    tr,
		cache: announce.NewSharded(0, dirShards),
		admit: admission.New(admission.Config{
			MaxSessions:  s.maxSessions,
			MaxPerOrigin: s.maxPerOrigin,
			OriginRate:   s.originRate,
			StaleAfter:   time.Hour / 4,
			RNG:          stats.NewRNG(seed ^ 1),
		}),
		tracker: clash.NewTracker(clash.TrackerConfig{
			RecentWindow: 30_000,
			Delay:        clash.NewExponentialDelay(0, 3200, 200),
		}, stats.NewRNG(seed^2)),
		space:   mcast.SAPDynamicSpace(),
		budgets: s.maxSessions > 0 || s.maxPerOrigin > 0,
		journal: s.snapshot != nil,
		owned:   map[string]*session.Description{},
	}
}

func msSince(now time.Time) float64 {
	return float64(now.Sub(epoch)) / float64(time.Millisecond)
}

// restore brings the shadow to the state the snapshot holds, by hearing
// the same announcements at the same virtual times the snapshot's
// builder did.
func (sh *shadow) restore(phases []snapshotPhase) error {
	for _, ph := range phases {
		at := epoch.Add(ph.at)
		for _, w := range ph.wires {
			var pkt sap.Packet
			if err := pkt.DecodeMaybeCompressed(w); err != nil {
				return err
			}
			desc, err := session.ParseSDP(pkt.Payload)
			if err != nil {
				return err
			}
			sh.cache.Observe(desc, at)
			sh.trackerObserve(desc, at)
		}
	}
	return nil
}

func (sh *shadow) trackerObserve(desc *session.Description, now time.Time) []clash.Action {
	idx, ok := sh.space.Index(desc.Group)
	if !ok {
		return nil
	}
	return sh.tracker.Observe(clash.Observation{Key: clash.SessionKey(desc.Key()), Addr: idx, TTL: desc.TTL, At: msSince(now)})
}

// handleBatch probes the receive path with one HandleBatch call's
// datagrams. degradedTotal is the directory's DegradedLearns counter
// after the call: that many unknown sessions were dropped before any
// admission scan, so the probe skips the scan for as many.
func (sh *shadow) handleBatch(ms []transport.Message, now time.Time, ev *callEvents, degradedTotal uint64) {
	tr := sh.tr
	skipScan := degradedTotal - sh.seenDegraded
	sh.seenDegraded = degradedTotal

	for _, m := range ms {
		if len(m.Data) > 0 && m.Data[0]&1 != 0 {
			sh.counts.decodeCompressed++
		}
		var pkt sap.Packet
		sp := tr.begin(opSapDecode)
		err := pkt.DecodeMaybeCompressed(m.Data)
		tr.end(sp)
		if err != nil || pkt.EffectivePayloadType() != sap.PayloadTypeSDP {
			sh.counts.decodeFailed++
			continue
		}
		sp = tr.begin(opSessionParse)
		desc, err := session.ParseSDP(pkt.Payload)
		tr.end(sp)
		if len(pkt.Payload) < smallSDP && tr != nil {
			sh.counts.parseSmallNS += uint64(tr.spans[sp].End - tr.spans[sp].Start)
			sh.counts.parseSmallCount++
		}
		if err != nil {
			sh.counts.decodeFailed++
			continue
		}
		key := desc.Key()

		sp = tr.begin(opAdmissionAllow)
		allowed := sh.admit.Allow(pkt.Origin, now)
		tr.end(sp)
		if !allowed {
			sh.counts.allowDenied++
			continue
		}

		sp = tr.begin(opAnnouncePeek)
		e, known := sh.cache.Peek(key)
		tr.end(sp)

		if pkt.Type == sap.Delete {
			if known && pkt.Origin == e.Desc.Origin {
				sh.cache.Delete(key, now)
				sh.tracker.Forget(clash.SessionKey(key))
			}
			continue
		}
		if known && (desc.Version < e.Desc.Version || desc.Version == e.Desc.Version && e.Deleted) {
			continue // a stale replay: the directory drops it before the cache
		}
		if !known && sh.owned[key] == nil {
			if !ev.learned[key] && skipScan > 0 {
				skipScan--
				continue
			}
			if sh.budgets {
				sp = tr.begin(opAnnounceAllGrouped)
				groups := sh.cache.AllGrouped()
				tr.end(sp)
				cands := candidatesOf(groups) // the directory's own work: not a layer span
				sp = tr.begin(opAdmissionPlan)
				dec := sh.admit.PlanNewGrouped(cands, desc.Origin, now)
				tr.end(sp)
				for _, g := range cands {
					sh.counts.planCandidates += uint64(len(g))
				}
				if dec.Outcome == admission.Admit {
					sh.counts.planAdmitted++
				}
			}
			if !ev.learned[key] {
				continue // shed or denied by the directory's own plan
			}
		}

		sp = tr.begin(opAnnounceObserve)
		_, fresh := sh.cache.Observe(desc, now)
		tr.end(sp)
		if fresh {
			sh.counts.observeFresh++
			if sh.journal {
				sp = tr.begin(opSessionMarshal)
				_, _ = desc.MarshalSDP() // cost probe; ParseSDP just validated desc
				tr.end(sp)
			}
		}
		if _, ok := sh.space.Index(desc.Group); ok {
			sh.counts.clashScanned += uint64(sh.cache.Len() + len(sh.owned))
			sp = tr.begin(opClashObserve)
			actions := sh.trackerObserve(desc, now)
			tr.end(sp)
			sh.counts.clashActions += uint64(len(actions))
		}
	}
	for _, k := range ev.evicted {
		sh.cache.Remove(k)
		sh.tracker.Forget(clash.SessionKey(k))
	}
}

// candidatesOf mirrors the directory's conversion of cache entries into
// admission candidates.
func candidatesOf(groups [][]*announce.Entry) [][]admission.Candidate {
	out := make([][]admission.Candidate, len(groups))
	for i, entries := range groups {
		cands := make([]admission.Candidate, 0, len(entries))
		for _, e := range entries {
			cands = append(cands, admission.Candidate{
				Key: e.Desc.Key(), Origin: e.Desc.Origin, TTL: e.Desc.TTL,
				LastHeard: e.LastHeard, Deleted: e.Deleted,
			})
		}
		out[i] = cands
	}
	return out
}

// create probes what CreateSession and CreateSessionBatch do per
// allocation run (one scan of the live cache for the allocator's view)
// and per session (marshal the announcement, register the address).
func (sh *shadow) create(asked, created []*session.Description, now time.Time) {
	tr := sh.tr
	for i := range asked {
		if i == 0 || asked[i].TTL != asked[i-1].TTL {
			sp := tr.begin(opAnnounceLive)
			live := sh.cache.Live()
			tr.end(sp)
			sh.counts.liveEntries += uint64(len(live))
		}
	}
	for _, d := range created {
		sh.probeMarshal(d, sap.Announce)
		sh.owned[d.Key()] = d
		sh.announceOwn(d, now)
	}
}

func (sh *shadow) announceOwn(d *session.Description, now time.Time) {
	if idx, ok := sh.space.Index(d.Group); ok {
		sh.tracker.AnnounceOwn(clash.SessionKey(d.Key()), idx, d.TTL, msSince(now))
	}
}

func (sh *shadow) probeMarshal(d *session.Description, typ sap.MessageType) {
	sp := sh.tr.begin(opSessionMarshal)
	payload, err := d.MarshalSDP()
	sh.tr.end(sp)
	if err != nil {
		return
	}
	pkt := sap.Packet{Type: typ, MsgIDHash: sap.MsgIDHashOf(payload), Origin: d.Origin, Payload: payload}
	sp = sh.tr.begin(opSapMarshal)
	_, _ = pkt.Marshal(nil) // cost probe; an IPv4 origin cannot fail
	sh.tr.end(sp)
}

// moved records a clash-driven address change of an owned session.
func (sh *shadow) moved(d *session.Description, now time.Time) {
	sh.owned[d.Key()] = d
	sh.announceOwn(d, now)
}

func (sh *shadow) withdraw(key string) {
	if d := sh.owned[key]; d != nil {
		sh.probeMarshal(d, sap.Delete)
		delete(sh.owned, key)
		sh.tracker.Forget(clash.SessionKey(key))
	}
}

func (sh *shadow) step(now time.Time) {
	sp := sh.tr.begin(opClashDue)
	sh.tracker.Due(msSince(now))
	sh.tr.end(sp)
	sp = sh.tr.begin(opAnnounceExpire)
	expired := sh.cache.Expire(now)
	sh.tr.end(sp)
	for _, k := range expired {
		sh.tracker.Forget(clash.SessionKey(k))
	}
}

// check reports a shadow that drifted from the real population: its
// probes would then have run at the wrong working-set size.
func (sh *shadow) check(d *sessiondir.Directory) []string {
	real, mine := d.CacheSize(), sh.cache.Size()
	if abs(real-mine)*50 > real {
		return []string{fmt.Sprintf("shadow cache holds %d entries, the directory %d", mine, real)}
	}
	return nil
}
