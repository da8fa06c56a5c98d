package main

import (
	"net/netip"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
)

// Sizes. The full sizes keep one rep at about a second on the reference
// host, so that a 25-second run replays fifteen times or more: the
// estimator wants many reps, not long ones. They never go below 600
// latency calls per rep, so that at least 60 samples lie beyond the 90th
// percentile. The tiny sizes serve the smoke test.

type listenSizes struct {
	Resident, Origins int
	Calls, Batch      int // HandleBatch calls per rep, datagrams per call
	StepEvery         int // one virtual second and one Step per this many calls
	CheckpointEvery   int // virtual seconds between checkpoints
}

var (
	listenFull = listenSizes{Resident: 1024, Origins: 128, Calls: 600, Batch: 32, StepEvery: 8, CheckpointEvery: 30}
	listenTiny = listenSizes{Resident: 128, Origins: 16, Calls: 40, Batch: 8, StepEvery: 8, CheckpointEvery: 2}
)

// Datagram kinds of listen_steady, in shares of a thousand. Whatever is
// left is an unchanged re-announcement of a resident session — the bulk of
// SAP traffic in the announce/listen model.
const (
	listenBumpPM       = 50 // new version of a resident session
	listenDeletePM     = 5  // deletion of a resident session ...
	listenReplacePM    = 5  // ... and a never-seen session taking its place
	listenCompressedPM = 20 // unchanged, zlib-compressed
	listenMalformedPM  = 10
	listenForeignPM    = 10 // resident session outside the managed block
)

type dgramKind uint8

const (
	kindUnchanged dgramKind = iota
	kindBump
	kindDelete
	kindReplace
	kindCompressed
	kindMalformed
	kindForeign
)

// exactMix returns n kinds holding exactly the per-mille quota of each
// (the remainder is kindUnchanged), shuffled. Exact quotas rather than
// independent draws keep the amount of each kind of work the same for
// every seed; only its order and its targets change.
func exactMix(rng *stats.RNG, n int, perMille map[dgramKind]int) []dgramKind {
	kinds := make([]dgramKind, 0, n)
	for k := kindBump; k <= kindForeign; k++ {
		for i := 0; i < n*perMille[k]/1000; i++ {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, kindUnchanged)
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	return kinds
}

// genListen writes the listen_steady script: the listener fast path.
func genListen(seed uint64, sz listenSizes) (*dirScript, error) {
	rng := stats.NewRNG(seed)
	cascade := &originCascade{rng: rng, salt: mix64(seed)}
	pop := newPopulation(rng, cascade.distinct(sz.Origins, nil))

	// Resident sessions; one in a hundred lives outside the managed block.
	nForeign := max(sz.Resident/100, 1)
	var inBlock, foreign []resident
	var wires [][]byte
	for i := 0; i < sz.Resident; i++ {
		r, err := pop.add(pop.skewedOrigin(), i < nForeign)
		if err != nil {
			return nil, err
		}
		if i < nForeign {
			foreign = append(foreign, r)
		} else {
			inBlock = append(inBlock, r)
		}
		wires = append(wires, r.wire)
	}
	phases := []snapshotPhase{{at: -time.Minute, wires: wires}}
	snapshot, err := buildSnapshot(phases)
	if err != nil {
		return nil, err
	}

	s := &dirScript{
		name: "listen_steady", snapshot: snapshot, phases: phases,
		latency: opHandleBatch, ops: sz.Calls * sz.Batch, wantPopulation: sz.Resident,
	}
	kinds := exactMix(rng, sz.Calls*sz.Batch, map[dgramKind]int{
		kindBump: listenBumpPM, kindDelete: listenDeletePM, kindReplace: listenReplacePM,
		kindCompressed: listenCompressedPM, kindMalformed: listenMalformedPM, kindForeign: listenForeignPM,
	})
	seconds := 0
	for c := 0; c < sz.Calls; c++ {
		dgrams := make([][]byte, 0, sz.Batch)
		for _, kind := range kinds[c*sz.Batch : (c+1)*sz.Batch] {
			i := rng.IntN(len(inBlock))
			var w []byte
			var err error
			switch kind {
			case kindUnchanged:
				w = inBlock[i].wire
			case kindBump:
				d := *inBlock[i].desc
				d.Version++
				d.Info = filler(rng, len(d.Info))
				if w, err = wireOf(&d, sap.Announce, false); err == nil {
					inBlock[i] = resident{desc: &d, wire: w}
				}
			case kindDelete:
				w, err = wireOf(inBlock[i].desc, sap.Delete, false)
				inBlock[i] = inBlock[len(inBlock)-1]
				inBlock = inBlock[:len(inBlock)-1]
			case kindReplace:
				var r resident
				if r, err = pop.add(pop.skewedOrigin(), false); err == nil {
					inBlock = append(inBlock, r)
					w = r.wire
				}
			case kindCompressed:
				w, err = wireOf(inBlock[i].desc, sap.Announce, true)
			case kindMalformed:
				w = malformedDatagram(rng, inBlock[i].wire)
				s.malformed++
			case kindForeign:
				w = foreign[rng.IntN(len(foreign))].wire
			}
			if err != nil {
				return nil, err
			}
			dgrams = append(dgrams, w)
		}
		s.calls = append(s.calls, call{kind: opHandleBatch, msgs: messagesOf(dgrams)})
		if (c+1)%sz.StepEvery == 0 {
			seconds++
			s.calls = append(s.calls, call{kind: opStep, advance: time.Second})
			if seconds%sz.CheckpointEvery == 0 {
				s.calls = append(s.calls, call{kind: opCheckpoint})
			}
		}
	}
	return s, nil
}

type flashSizes struct {
	Budget, PerOrigin int     // MaxSessions, MaxPerOrigin
	OriginRate        float64 // packets per virtual second and origin
	ResidentOrigins   int
	CrowdOrigins      int
	Calls             int
	StepEvery         int // calls per virtual second
	// Every call carries exactly Crowd never-seen sessions from the crowd,
	// Hostile never-seen sessions from one of two origins that together
	// send faster than OriginRate allows each, and Known re-announcements
	// of fresh resident sessions. Composing each call exactly, rather than
	// drawing kinds at random, fixes how many admission plans a call can
	// cost: batch latency then takes a few discrete values, and the mix is
	// chosen so that the median and the 90th percentile each fall in the
	// middle of one such plateau instead of on the step between two.
	Crowd, Hostile, Known int
	// StaleAt is when the middle third of the recovered cache goes stale,
	// in virtual seconds into the run: the overload tier falls back to 0
	// there and climbs again.
	StaleAt int
}

var (
	flashFull = flashSizes{Budget: 1024, PerOrigin: 32, OriginRate: 1, ResidentOrigins: 128, CrowdOrigins: 1024,
		Calls: 600, StepEvery: 4, Crowd: 1, Hostile: 1, Known: 2, StaleAt: 125}
	flashTiny = flashSizes{Budget: 96, PerOrigin: 8, OriginRate: 1, ResidentOrigins: 24, CrowdOrigins: 64,
		Calls: 120, StepEvery: 4, Crowd: 1, Hostile: 1, Known: 2, StaleAt: 18}
)

// staleAfter is the directory's default staleness horizon (a quarter of
// the one-hour cache timeout).
const staleAfter = 15 * time.Minute

// genFlash writes the flash_crowd script: admission under budget pressure.
func genFlash(seed uint64, sz flashSizes) (*dirScript, error) {
	rng := stats.NewRNG(seed)
	cascade := &originCascade{rng: rng, salt: mix64(seed)}
	taken := map[netip.Addr]bool{}
	residentOrigins := cascade.distinct(sz.ResidentOrigins, taken)
	crowd := cascade.distinct(sz.CrowdOrigins, taken)
	hostile := cascade.distinct(2, taken)
	pop := newPopulation(rng, residentOrigins)

	// The recovered cache fills the budget. A third is already stale, a
	// third goes stale StaleAt seconds into the run, a third stays fresh
	// and supplies the known re-announcements.
	var groups [3][]resident
	for i := 0; i < sz.Budget; i++ {
		r, err := pop.add(residentOrigins[i%len(residentOrigins)], false)
		if err != nil {
			return nil, err
		}
		groups[i%3] = append(groups[i%3], r)
	}
	wiresOf := func(rs []resident) [][]byte {
		out := make([][]byte, len(rs))
		for i, r := range rs {
			out[i] = r.wire
		}
		return out
	}
	phases := []snapshotPhase{
		{at: -2 * staleAfter, wires: wiresOf(groups[0])},
		{at: time.Duration(sz.StaleAt)*time.Second - staleAfter, wires: wiresOf(groups[1])},
		{at: -time.Minute, wires: wiresOf(groups[2])},
	}
	snapshot, err := buildSnapshot(phases)
	if err != nil {
		return nil, err
	}

	batch := sz.Crowd + sz.Hostile + sz.Known
	s := &dirScript{
		name: "flash_crowd", snapshot: snapshot, phases: phases,
		maxSessions: sz.Budget, maxPerOrigin: sz.PerOrigin, originRate: sz.OriginRate,
		latency: opHandleBatch, ops: sz.Calls * batch,
		wantMix: func(fp *fingerprint) []string {
			var missing []string
			for _, c := range []struct {
				name string
				n    uint64
			}{
				{"evictions", fp.Evictions}, {"sheds", fp.Shed}, {"quota drops", fp.QuotaDrops},
				{"degraded learns", fp.DegradedLearns}, {"steps at tier 0", fp.Level0Steps},
				{"steps at tier 1", fp.Level1Steps}, {"steps at tier 2", fp.Level2Steps},
			} {
				if c.n == 0 {
					missing = append(missing, "flash_crowd outcome mix has no "+c.name)
				}
			}
			return missing
		},
	}
	known := groups[2]
	hostileSent := 0
	for c := 0; c < sz.Calls; c++ {
		dgrams := make([][]byte, 0, batch)
		for i := 0; i < batch; i++ {
			var r resident
			var err error
			switch {
			case i < sz.Crowd:
				r, err = pop.add(crowd[rng.IntN(len(crowd))], false)
			case i < sz.Crowd+sz.Hostile:
				r, err = pop.add(hostile[hostileSent%2], false)
				hostileSent++
			default:
				r = known[rng.IntN(len(known))]
			}
			if err != nil {
				return nil, err
			}
			dgrams = append(dgrams, r.wire)
		}
		rng.Shuffle(len(dgrams), func(i, j int) { dgrams[i], dgrams[j] = dgrams[j], dgrams[i] })
		s.calls = append(s.calls, call{kind: opHandleBatch, msgs: messagesOf(dgrams)})
		if (c+1)%sz.StepEvery == 0 {
			s.calls = append(s.calls, call{kind: opStep, advance: time.Second})
		}
	}
	return s, nil
}

type createSizes struct {
	Heard, Origins int
	Creates        int // CreateSession calls per rep
	Owned          int // owned sessions held once full
	BatchEvery     int // every this many creates, one CreateSessionBatch ...
	BatchSize      int // ... of this many sessions
	ClashEvery     int // every this many creates, a forged clash
	StepEvery      int // one virtual second and one Step per this many calls
}

var (
	createFull = createSizes{Heard: 1024, Origins: 128, Creates: 6000, Owned: 256, BatchEvery: 40, BatchSize: 16, ClashEvery: 50, StepEvery: 16}
	createTiny = createSizes{Heard: 128, Origins: 16, Creates: 120, Owned: 16, BatchEvery: 20, BatchSize: 4, ClashEvery: 10, StepEvery: 16}
)

// genCreate writes the create_churn script: the announcer and allocator
// path a user waits on.
func genCreate(seed uint64, sz createSizes) (*dirScript, error) {
	rng := stats.NewRNG(seed)
	cascade := &originCascade{rng: rng, salt: mix64(seed)}
	pop := newPopulation(rng, cascade.distinct(sz.Origins, nil))

	s := &dirScript{name: "create_churn", latency: opCreate, wantPopulation: sz.Heard}
	var batch [][]byte
	for i := 0; i < sz.Heard; i++ {
		r, err := pop.add(pop.skewedOrigin(), false)
		if err != nil {
			return nil, err
		}
		if batch = append(batch, r.wire); len(batch) == 32 || i == sz.Heard-1 {
			s.preload = append(s.preload, messagesOf(batch))
			batch = nil
		}
	}

	nextID := uint64(1_000_000)
	ownDesc := func(ttl mcast.TTL) *session.Description {
		nextID++
		// Group is the program's to choose; Origin is overwritten with its own.
		return newDesc(rng, selfOrigin, nextID, sizeClassOf(nextID), mcast.SAPDynamicSpace().Base, ttl)
	}
	var live []string // keys of owned sessions, oldest first
	emit := func(c call) {
		s.calls = append(s.calls, c)
		if len(s.calls)%sz.StepEvery == 0 {
			s.calls = append(s.calls, call{kind: opStep, advance: time.Second})
		}
	}
	created := func(descs ...*session.Description) {
		s.ops += len(descs)
		for _, d := range descs {
			live = append(live, d.Key())
		}
	}
	for k := 1; k <= sz.Creates; k++ {
		d := ownDesc(mcast.DS4().Sample(rng.IntN))
		emit(call{kind: opCreate, descs: []*session.Description{d}})
		created(d)
		if k%sz.ClashEvery == 0 {
			nextID++
			forged := newDesc(rng, foreignOrigin, nextID, sdpSmall, mcast.SAPDynamicSpace().Base, 1)
			emit(call{kind: opHandleBatch, clashWith: forged})
		}
		if k%sz.BatchEvery == 0 {
			// One scope per batch, as in a conference fan-out: that is
			// the case CreateSessionBatch amortises the view scan for.
			ttl := mcast.DS4().Sample(rng.IntN)
			descs := make([]*session.Description, sz.BatchSize)
			for i := range descs {
				descs[i] = ownDesc(ttl)
			}
			emit(call{kind: opCreateBatch, descs: descs})
			created(descs...)
		}
		for len(live) > sz.Owned {
			emit(call{kind: opWithdraw, key: live[0]})
			live = live[1:]
		}
	}
	s.wantMix = func(fp *fingerprint) []string {
		if fp.ClashAddressChanges == 0 {
			return []string{"create_churn outcome mix has no clash moves"}
		}
		return nil
	}
	return s, nil
}
