package main

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"sessiondir/internal/mcast"
	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
)

// epoch is where every script's virtual clock starts. It is a constant so
// that timestamps inside SDP bodies — and therefore packet sizes — do not
// change with the seed.
var epoch = time.Unix(900_000_000, 0).UTC() // July 1998

// selfOrigin is the benchmarked directory's own address; generated
// origins never collide with it (first octet 10 is excluded below).
var selfOrigin = netip.AddrFrom4([4]byte{10, 0, 0, 1})

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cascadeBias is the probability that an origin's next address bit falls
// on the heavy side of its prefix.
const cascadeBias = 0.75

// originCascade draws IPv4 origins from a multiplicative cascade over the
// address bits: every prefix has a heavy and a light half, fixed by a
// hash of the prefix, and each draw descends the tree choosing the heavy
// half with probability cascadeBias. The result is the clustered-prefix
// structure measured in real IP traffic (few dense prefixes, a long tail
// of singletons) rather than uniform addresses, which is what stresses
// a cache striped by a hash of the origin.
type originCascade struct {
	rng  *stats.RNG
	salt uint64
}

func (c *originCascade) draw() netip.Addr {
	for {
		var v uint32
		for bit := 0; bit < 32; bit++ {
			b := uint32(mix64(c.salt^uint64(bit)<<40^uint64(v)) & 1)
			if c.rng.Float64() >= cascadeBias {
				b ^= 1
			}
			v = v<<1 | b
		}
		switch o := byte(v >> 24); {
		case o == 0, o == 10, o == 127, o >= 224:
			continue // not a unicast origin, or our own network
		}
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
}

// distinct returns n different origins, skipping any in taken.
func (c *originCascade) distinct(n int, taken map[netip.Addr]bool) []netip.Addr {
	if taken == nil {
		taken = map[netip.Addr]bool{}
	}
	out := make([]netip.Addr, 0, n)
	for len(out) < n {
		a := c.draw()
		if !taken[a] {
			taken[a] = true
			out = append(out, a)
		}
	}
	return out
}

// SDP size classes: per-packet cost dominates the small one, per-byte
// cost the large one.
const (
	sdpSmall = iota
	sdpMedium
	sdpLarge
)

var fillerWords = strings.Fields("seminar lecture mbone workshop audio video whiteboard " +
	"conference research network multicast session channel broadcast meeting group")

func filler(rng *stats.RNG, n int) string {
	var b strings.Builder
	for b.Len() < n {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(fillerWords[rng.IntN(len(fillerWords))])
	}
	return b.String()[:n]
}

// newDesc builds an announceable description of the given size class
// (about 220 B, 450 B and 1 KB on the wire).
func newDesc(rng *stats.RNG, origin netip.Addr, id uint64, class int, group netip.Addr, ttl mcast.TTL) *session.Description {
	d := &session.Description{
		ID:         id,
		Version:    1,
		Origin:     origin,
		OriginUser: "bench",
		Name:       filler(rng, 16),
		Group:      group,
		TTL:        ttl,
		Start:      epoch,
		Stop:       epoch.Add(24 * time.Hour),
		Attributes: []string{"tool:sdr v2.4a6"},
		Media:      []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
	}
	switch class {
	case sdpSmall:
		d.Info = filler(rng, 40)
	case sdpMedium:
		d.Info = filler(rng, 120)
		d.BandwidthKbps = 128
		d.Attributes = append(d.Attributes, "type:meeting", "recvonly")
		d.Media[0].Attributes = []string{"ptime:40"}
		d.Media = append(d.Media, session.Media{Type: "video", Port: 20002, Proto: "RTP/AVP", Format: "31",
			Attributes: []string{"framerate:15", "quality:8"}})
	case sdpLarge:
		d.Info = filler(rng, 320)
		d.BandwidthKbps = 512
		d.Attributes = append(d.Attributes, "type:broadcast", "recvonly", "charset:ISO-8859-1",
			"keywds:"+filler(rng, 60), "cat:"+filler(rng, 30))
		d.Media[0].Attributes = []string{"ptime:40", "rtpmap:0 PCMU/8000"}
		for i, m := range []struct{ typ, fmt string }{{"video", "31"}, {"whiteboard", "wb"}, {"text", "nt"}, {"audio", "5"}} {
			d.Media = append(d.Media, session.Media{Type: m.typ, Port: uint16(20002 + 2*i), Proto: "RTP/AVP", Format: m.fmt,
				Attributes: []string{"orient:portrait", "x-note:" + filler(rng, 40)}})
		}
	}
	return d
}

// sizeClassOf assigns size classes by session id in a fixed cycle — half
// small, a third medium, a sixth large — so every seed announces the same
// mix of packet sizes.
func sizeClassOf(id uint64) int {
	return [...]int{sdpSmall, sdpMedium, sdpSmall, sdpLarge, sdpMedium, sdpSmall}[id%6]
}

// wireOf marshals d into one SAP datagram.
func wireOf(d *session.Description, typ sap.MessageType, compressed bool) ([]byte, error) {
	payload, err := d.MarshalSDP()
	if err != nil {
		return nil, fmt.Errorf("marshal %s: %w", d.Key(), err)
	}
	pkt := sap.Packet{Type: typ, MsgIDHash: sap.MsgIDHashOf(payload), Origin: d.Origin, Payload: payload}
	if compressed {
		return pkt.MarshalCompressed(nil)
	}
	return pkt.Marshal(nil)
}

// malformedDatagram returns bytes the directory must count as malformed,
// cycling through the ways a packet can be bad: a runt, a wrong SAP
// version, a body that is not SDP, and an SDP missing mandatory lines.
func malformedDatagram(rng *stats.RNG, good []byte) []byte {
	switch rng.IntN(4) {
	case 0:
		return append([]byte(nil), good[:5]...)
	case 1:
		b := append([]byte(nil), good...)
		b[0] = 0xe0 // version 7
		return b
	case 2:
		b := append([]byte(nil), good[:8]...)
		return append(b, "application/sdp\x00this is not a session description\r\n"...)
	default:
		b := append([]byte(nil), good[:8]...)
		return append(b, "application/sdp\x00v=0\r\ns=truncated\r\n"...)
	}
}

// resident is one session the generator's model of the cache holds.
type resident struct {
	desc *session.Description
	wire []byte // current announcement
}

// population is the generator's model of what a listening directory has
// cached: it hands out clash-free addresses and fresh session ids so the
// script can be written without running the program.
type population struct {
	rng     *stats.RNG
	space   mcast.AddrSpace
	origins []netip.Addr
	addrs   []int // a permutation of the space, consumed front to back
	nextID  uint64
}

func newPopulation(rng *stats.RNG, origins []netip.Addr) *population {
	space := mcast.SAPDynamicSpace()
	return &population{rng: rng, space: space, origins: origins, addrs: rng.Perm(int(space.Size)), nextID: 1}
}

// skewedOrigin picks an origin with quadratic skew: a few origins
// announce many sessions, most announce one or two.
func (p *population) skewedOrigin() netip.Addr {
	u := p.rng.Float64()
	return p.origins[int(u*u*float64(len(p.origins)))]
}

// add creates a new session from origin at the next unused address
// (or, with foreign set, at an address outside the managed block).
func (p *population) add(origin netip.Addr, foreign bool) (resident, error) {
	var group netip.Addr
	if foreign {
		group = mcast.AdminScopedSpace(0).Group(mcast.Addr(p.rng.IntN(1 << 16)))
	} else {
		if len(p.addrs) == 0 {
			return resident{}, fmt.Errorf("generator ran out of clash-free addresses")
		}
		group = p.space.Group(mcast.Addr(p.addrs[0]))
		p.addrs = p.addrs[1:]
	}
	d := newDesc(p.rng, origin, p.nextID, sizeClassOf(p.nextID), group, mcast.DS4().Sample(p.rng.IntN))
	p.nextID++
	w, err := wireOf(d, sap.Announce, false)
	return resident{desc: d, wire: w}, err
}
