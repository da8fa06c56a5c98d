package chaos

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"time"

	"sessiondir/internal/des"
	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/transport"
)

// AdversaryKind selects a hostile behaviour. Adversaries speak raw SAP on
// the network — they are not directories, so nothing constrains them to the
// protocol's good manners. Each kind models one attack the admission
// layer (or the clash protocol itself) must absorb.
type AdversaryKind int

const (
	// Flooder announces an endless stream of brand-new, internally
	// consistent sessions, optionally rotating source origins — the
	// cache-exhaustion attack the session budget and per-origin quota
	// exist for.
	Flooder AdversaryKind = iota
	// Poisoner tries to mutate cached honest sessions in place: it
	// replays a heard announcement with the victim's origin but a
	// different address and no version bump, and also sends copies whose
	// SAP header origin disagrees with the SDP payload.
	Poisoner
	// ClashForger creates its own sessions deliberately at addresses it
	// has heard honest agents announce, forcing the clash protocol to
	// arbitrate against a hostile claimant.
	ClashForger
	// Replayer records honest wire packets verbatim and retransmits them
	// later — stale versions must be rejected, current versions must be
	// harmless refreshes, and neither may re-trigger clash correction.
	Replayer
	// DeleteForger sends SAP deletions naming heard honest sessions from
	// its own origin — the deletion-spoofing attack.
	DeleteForger
)

// AdversaryConfig parameterises one hostile agent.
type AdversaryConfig struct {
	Kind AdversaryKind
	// Origin is the adversary's base source address
	// (zero = 192.0.2.200+index, outside the honest fleet's 10.0.0.0/8).
	Origin netip.Addr
	// Rate is packets sent per tick while active (0 = 8).
	Rate int
	// Origins rotates a Flooder across this many source addresses,
	// modelling a spoofing flooder that sidesteps per-origin defences
	// (0 = 1: all packets from Origin).
	Origins int
	// Start and Stop bound the active window in virtual time since
	// Config.Start — absolute, however the run is split into Run calls
	// (Stop 0 = active until the run ends).
	Start, Stop time.Duration
	// TTL is the announced scope of forged sessions (0 = 127).
	TTL mcast.TTL
}

// maxRecorded bounds how much honest traffic an adversary remembers;
// adversaries must not be a memory leak in long schedules either.
const maxRecorded = 512

// Adversary is one hostile agent on the network. It records the honest
// traffic it overhears (adversaries eavesdrop; the network is multicast) and
// spends its per-tick packet budget according to its kind. All of its
// random choices come from an RNG split off the harness root, so hostile
// schedules replay bit-identically like everything else.
type Adversary struct {
	Index int

	cfg   AdversaryConfig
	ep    *des.Endpoint
	rng   *stats.RNG
	space mcast.AddrSpace

	sent   uint64
	nextID uint64

	// Overheard honest traffic: raw wire bytes for the replayer, decoded
	// announcements for the poisoner/clash-forger/delete-forger.
	wire  [][]byte
	descs []*session.Description
}

// AddAdversary attaches a hostile agent to the fabric, at the lowest
// node no one else is attached to. Adversaries join the same des.Net as
// the fleet, overhear whatever scope and faults let reach them, and spend
// their packet budget once a Tick on the engine, in the order they were
// added. It panics when the topology has no node left.
func (h *Harness) AddAdversary(cfg AdversaryConfig) *Adversary { //mclint:unused the adversary tests attach their hostile agents with it
	idx := len(h.advs)
	var ep *des.Endpoint
	for ; ep == nil; h.advNode++ {
		if int(h.advNode) >= h.cfg.Graph.NumNodes() {
			panic("chaos: no unattached node left for an adversary")
		}
		ep, _ = h.fleet.Net.Attach(h.advNode) // fails only for a node already taken: try the next
	}
	if !cfg.Origin.IsValid() {
		cfg.Origin = netip.AddrFrom4([4]byte{192, 0, 2, byte(200 + idx)})
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 8
	}
	if cfg.Origins <= 0 {
		cfg.Origins = 1
	}
	if cfg.TTL == 0 {
		cfg.TTL = 127
	}
	a := &Adversary{
		Index: idx,
		cfg:   cfg,
		ep:    ep,
		rng:   h.root.Split(),
		space: h.cfg.Dir.Space,
	}
	a.ep.Subscribe(a.record)
	h.advs = append(h.advs, a)
	h.fleet.Engine.Every(h.cfg.Tick, func() { a.step(h.fleet.Engine.Now().Sub(h.cfg.Start)) })
	return a
}

// record stores overheard announcements, bounded. It keeps whatever is
// internally consistent — an adversary cannot tell honest traffic from
// another adversary's well-formed forgeries, and doesn't care.
func (a *Adversary) record(ms []transport.Message) {
	for _, m := range ms {
		if len(a.wire) >= maxRecorded {
			return
		}
		var p sap.Packet
		if err := p.DecodeMaybeCompressed(m.Data); err != nil || p.Type != sap.Announce {
			continue
		}
		desc, err := session.ParseSDP(p.Payload)
		if err != nil || desc.Origin != p.Origin {
			continue
		}
		// m.Data is on loan for this call only; the replayer keeps a copy.
		a.wire = append(a.wire, bytes.Clone(m.Data))
		a.descs = append(a.descs, desc)
	}
}

// active reports whether the adversary sends in the tick ending elapsed
// after Config.Start.
func (a *Adversary) active(elapsed time.Duration) bool {
	if elapsed <= a.cfg.Start {
		return false
	}
	return a.cfg.Stop == 0 || elapsed <= a.cfg.Stop
}

// step spends one tick's packet budget.
func (a *Adversary) step(elapsed time.Duration) {
	if !a.active(elapsed) {
		return
	}
	for i := 0; i < a.cfg.Rate; i++ {
		switch a.cfg.Kind {
		case Flooder:
			a.flood()
		case Poisoner:
			a.poison()
		case ClashForger:
			a.forgeClash()
		case Replayer:
			a.replay()
		case DeleteForger:
			a.forgeDelete()
		}
	}
}

// origin returns the source address for the next packet, rotating across
// the configured spoof range.
func (a *Adversary) origin() netip.Addr {
	if a.cfg.Origins == 1 {
		return a.cfg.Origin
	}
	base := a.cfg.Origin.As4()
	k := a.rng.IntN(a.cfg.Origins)
	base[2] += byte(k >> 8)
	base[3] += byte(k)
	return netip.AddrFrom4(base)
}

// send marshals and transmits; marshal failures on forged content are
// silently dropped (an adversary has no error budget to report to).
func (a *Adversary) send(typ sap.MessageType, origin netip.Addr, desc *session.Description) {
	payload, err := desc.MarshalSDP()
	if err != nil {
		return
	}
	pkt := sap.Packet{
		Type:      typ,
		MsgIDHash: sap.MsgIDHashOf(payload),
		Origin:    origin,
		Payload:   payload,
	}
	wireBytes, err := pkt.Marshal(nil)
	if err != nil {
		return
	}
	a.transmit(wireBytes, desc.TTL)
}

// transmit puts one datagram on the network, counting it if it left.
func (a *Adversary) transmit(data []byte, ttl mcast.TTL) {
	if a.ep.SendBatch(context.Background(), []transport.Datagram{{Data: data, Scope: ttl}}) == nil {
		a.sent++
	}
}

// flood announces a fresh, internally consistent session at a random
// address. Every packet survives validation; only budgets stop it.
func (a *Adversary) flood() {
	org := a.origin()
	a.nextID++
	a.send(sap.Announce, org, &session.Description{
		ID:      a.nextID,
		Version: 1,
		Origin:  org,
		Name:    fmt.Sprintf("flood-%d-%d", a.Index, a.nextID),
		Group:   a.space.Group(mcast.Addr(a.rng.IntN(int(a.space.Size)))),
		TTL:     a.cfg.TTL,
		Media:   []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	})
}

// poison attacks a recorded session's cached state: even packets carry a
// mismatched SAP header origin, odd packets spoof the victim's origin on
// a same-version announcement moved to a different address (a forged
// clash report).
func (a *Adversary) poison() {
	if len(a.descs) == 0 {
		return
	}
	victim := a.descs[a.rng.IntN(len(a.descs))]
	if a.sent%2 == 0 {
		a.send(sap.Announce, a.cfg.Origin, victim)
		return
	}
	moved := *victim
	idx, _ := a.space.Index(victim.Group)
	moved.Group = a.space.Group(mcast.Addr((uint32(idx) + 1 + uint32(a.rng.IntN(int(a.space.Size)-1))) % a.space.Size))
	a.send(sap.Announce, victim.Origin, &moved)
}

// forgeClash announces the adversary's own session at an address a
// recorded honest session already holds, making the clash protocol
// arbitrate between an honest claimant and a hostile one.
func (a *Adversary) forgeClash() {
	if len(a.descs) == 0 {
		return
	}
	victim := a.descs[a.rng.IntN(len(a.descs))]
	a.nextID++
	a.send(sap.Announce, a.cfg.Origin, &session.Description{
		ID:      a.nextID,
		Version: 1,
		Origin:  a.cfg.Origin,
		Name:    fmt.Sprintf("squat-%d-%d", a.Index, a.nextID),
		Group:   victim.Group,
		TTL:     a.cfg.TTL,
		Media:   []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	})
}

// replay retransmits a recorded wire packet byte-for-byte.
func (a *Adversary) replay() {
	if len(a.wire) == 0 {
		return
	}
	a.transmit(a.wire[a.rng.IntN(len(a.wire))], a.cfg.TTL)
}

// forgeDelete sends a deletion naming a recorded honest session. The SAP
// header carries the adversary's own origin: without authentication that
// is the only lie the receiver can actually catch, and it must.
func (a *Adversary) forgeDelete() {
	if len(a.descs) == 0 {
		return
	}
	victim := a.descs[a.rng.IntN(len(a.descs))]
	a.send(sap.Delete, a.cfg.Origin, victim)
}
