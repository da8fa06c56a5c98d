package main

import (
	"encoding/binary"
	"hash/crc32"
	"time"

	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sim"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// simSizes scales sim_occupancy. The space is sized so the fill ends at
// 73 % occupancy, the regime the 100k-session occupancy tier runs in.
type simSizes struct {
	Nodes, Space, Fill, Churn int
}

var (
	simFull = simSizes{Nodes: 400, Space: 16384, Fill: 12000, Churn: 2000}
	simTiny = simSizes{Nodes: 100, Space: 1024, Fill: 600, Churn: 100}
)

// placement is one sim_occupancy call: remove a victim (churn only), then
// place a session of the given origin and scope.
type placement struct {
	origin topology.NodeID
	ttl    mcast.TTL
	victim int32 // order index to remove first, -1 during fill
}

// simScript is sim.RunOccupancy's loop written out over the exported
// world API, so that every placement can be timed on its own. The
// origins, scopes and victims are the generated input; the topology and
// the allocator's random stream are fixed parts of the program.
type simScript struct {
	sz         simSizes
	placements []placement
}

func genSim(seed uint64, sz simSizes) *simScript {
	rng := stats.NewRNG(seed)
	dist := mcast.DS4()
	s := &simScript{sz: sz, placements: make([]placement, 0, sz.Fill+sz.Churn)}
	for i := 0; i < sz.Fill+sz.Churn; i++ {
		p := placement{origin: topology.NodeID(rng.IntN(sz.Nodes)), ttl: dist.Sample(rng.IntN), victim: -1}
		if i >= sz.Fill {
			p.victim = int32(rng.IntN(sz.Fill))
		}
		s.placements = append(s.placements, p)
	}
	return s
}

func (s *simScript) workloadName() string { return "sim_occupancy" }
func (s *simScript) numCalls() int        { return len(s.placements) }
func (s *simScript) callOp(int) op        { return opPlace }
func (s *simScript) latencyOp() op        { return opPlace }
func (s *simScript) opsPerRep() int       { return len(s.placements) }

type simRep struct {
	s     *simScript
	tr    *tracer
	w     *sim.PartitionedWorld
	alloc *countAlloc
	rng   *stats.RNG

	fillClashes, churnClashes, exhausted uint64
	visibleEntries                       uint64
	addrCRC                              uint32
}

func (s *simScript) newRep(tr *tracer) (rep, []setupStep, error) {
	r := &simRep{s: s, tr: tr, rng: stats.NewRNG(simSeed)}
	var steps []setupStep

	t0 := time.Now()
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: s.sz.Nodes}, stats.NewRNG(topoSeed))
	if err != nil {
		return nil, nil, err
	}
	steps = append(steps, setupStep{"topology", time.Since(t0)})

	// Fill the reach cache now: left lazy, the first rep to touch an
	// (origin, scope) pair would pay for it inside a placement.
	t0 = time.Now()
	cache := topology.NewReachCache(g)
	for n := 0; n < g.NumNodes(); n++ {
		for _, ttl := range mcast.DS4().Support() {
			cache.Reach(topology.NodeID(n), ttl)
		}
	}
	steps = append(steps, setupStep{"reach_cache", time.Since(t0)})

	t0 = time.Now()
	r.w = sim.NewPartitionedWorld(g, cache, 8, 2)
	r.alloc = &countAlloc{Allocator: allocator.NewHybrid(uint32(s.sz.Space)), tr: tr}
	steps = append(steps, setupStep{"world", time.Since(t0)})
	return r, steps, nil
}

func (r *simRep) prep(int) error { return nil }
func (r *simRep) after(int)      {}

func (r *simRep) do(i int) {
	p := r.s.placements[i]
	tr := r.tr
	clashes := &r.fillClashes
	if p.victim >= 0 {
		clashes = &r.churnClashes
		if n := r.w.Len(); n > 0 {
			sp := tr.begin(opSimAddRemove)
			r.w.RemoveAt(int(p.victim) % n)
			tr.end(sp)
		}
	}
	sp := tr.begin(opSimVisibleAt)
	visible := r.w.VisibleAt(p.origin)
	tr.end(sp)
	r.visibleEntries += uint64(len(visible))
	addr, err := r.alloc.Allocate(visible, p.ttl, r.rng)
	if err != nil {
		r.exhausted++
		return
	}
	sp = tr.begin(opSimClashes)
	clash := r.w.Clashes(p.origin, p.ttl, addr)
	tr.end(sp)
	if clash {
		*clashes++
	}
	sp = tr.begin(opSimAddRemove)
	r.w.Add(p.origin, p.ttl, addr)
	tr.end(sp)
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(addr))
	r.addrCRC = crc32.Update(r.addrCRC, castagnoli, b[:])
}

func (r *simRep) finish() (outcome, error) {
	out := outcome{
		fp: fingerprint{
			Placed:       uint64(r.w.Len()),
			FillClashes:  r.fillClashes,
			ChurnClashes: r.churnClashes,
			Exhausted:    r.exhausted,
			AddrCRC:      uint64(r.addrCRC),
		},
		resident: r.w.Len(),
		failed:   int(r.exhausted),
	}
	out.layer = layerCounts{
		allocCalls: r.alloc.calls, allocViewLen: r.alloc.viewLen, allocFailed: r.alloc.failed,
		simVisibleEntries: r.visibleEntries,
		simFillClashes:    r.fillClashes, simChurnClashes: r.churnClashes, simExhausted: r.exhausted,
	}
	return out, nil
}
