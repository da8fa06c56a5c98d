// Package sap implements the Session Announcement Protocol wire format
// (the protocol of the paper's reference [6], later RFC 2974): the packet
// header carrying session announcements and deletions between session
// directory instances.
//
// The codec follows the decoding style of high-throughput packet libraries:
// Decode parses into a caller-owned Packet without allocating, and the
// decoded Payload aliases the input buffer (NoCopy) — callers that retain
// the payload past the buffer's lifetime must copy it.
package sap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// MessageType distinguishes announcements from deletions.
type MessageType uint8

const (
	// Announce advertises (or re-advertises) a session.
	Announce MessageType = 0
	// Delete withdraws a previously announced session.
	Delete MessageType = 1
)

// String implements fmt.Stringer.
func (m MessageType) String() string {
	switch m {
	case Announce:
		return "announce"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("MessageType(%d)", uint8(m))
	}
}

// Version is the SAP protocol version this package implements.
const Version = 1

// PayloadTypeSDP is the payload type of SDP session descriptions.
const PayloadTypeSDP = "application/sdp"

// header layout constants.
const (
	flagVersionShift = 5      // V: 3 bits
	flagAddrType     = 1 << 4 // A: 0 = IPv4, 1 = IPv6
	flagMessageType  = 1 << 2 // T: 0 = announce, 1 = delete
	flagEncrypted    = 1 << 1 // E
	flagCompressed   = 1 << 0 // C

	headerLenIPv4 = 8 // flags, auth len, msg id hash, origin (4 bytes)
)

// Decoding errors.
var (
	ErrTooShort   = errors.New("sap: packet too short")
	ErrBadVersion = errors.New("sap: unsupported version")
	ErrIPv6       = errors.New("sap: IPv6 origin not supported")
	ErrEncrypted  = errors.New("sap: encrypted payloads not supported")
	ErrCompressed = errors.New("sap: compressed payloads not supported")
	ErrBadPayload = errors.New("sap: malformed payload type")
)

// Packet is one SAP message. The zero value is an IPv4 announcement with
// no payload.
type Packet struct {
	Type MessageType
	// MsgIDHash, with Origin, identifies one version of one announcement;
	// it changes whenever the payload changes (RFC 2974 §5).
	MsgIDHash uint16
	// Origin is the announcing host (IPv4).
	Origin netip.Addr
	// PayloadType is the MIME type; empty means PayloadTypeSDP implied.
	PayloadType string
	// Payload is the session description. After Decode it aliases the
	// input buffer.
	Payload []byte
}

// MsgIDHashOf computes the 16-bit message id hash of a payload: a stable
// non-cryptographic fold, sufficient to distinguish payload versions.
// The fold is h = h·31 + b over the bytes, mod 2³², taken four bytes per
// step by Horner's rule: four such steps are h·31⁴ + b₀·31³ + b₁·31² +
// b₂·31 + b₃, the same value with one dependent multiply instead of four.
func MsgIDHashOf(payload []byte) uint16 {
	const p2, p3, p4 = 31 * 31, 31 * 31 * 31, 31 * 31 * 31 * 31
	var h uint32 = 0x811c
	for ; len(payload) >= 4; payload = payload[4:] {
		h = h*p4 + uint32(payload[0])*p3 + uint32(payload[1])*p2 + uint32(payload[2])*31 + uint32(payload[3])
	}
	for _, b := range payload {
		h = h*31 + uint32(b)
	}
	return uint16(h ^ (h >> 16))
}

// PayloadDigest is a seeded 64-bit digest of a payload, never 0. Where the
// 16-bit MsgIDHashOf on the wire can only hint that a payload is one
// already seen, 64 bits under a seed the sender does not know can stand as
// the proof: a listener keeps the digest of the bytes it parsed and skips
// the parse when the same bytes come round again. The seed is the
// caller's (a directory derives it from its configured seed, never from
// process entropy, so a replay digests as the recording did). It folds
// sixteen bytes per 64×64→128-bit multiply, wyhash-fashion; it is not a
// cryptographic hash and does not need to be (DESIGN.md §11).
func PayloadDigest(seed uint64, p []byte) uint64 {
	const k0, k1, k2 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3
	mix := func(a, b uint64) uint64 {
		hi, lo := bits.Mul64(a, b)
		return hi ^ lo
	}
	// The lane key depends on the seed, so no fixed eight bytes zero a
	// multiplicand; the length goes in first, so the zero padding of the
	// last block is unambiguous.
	lane := mix(seed^k0, k1) | 1
	h := mix(seed^uint64(len(p)), k2)
	for ; len(p) >= 16; p = p[16:] {
		h = mix(binary.LittleEndian.Uint64(p)^lane, binary.LittleEndian.Uint64(p[8:])^h)
	}
	if len(p) > 0 {
		var tail [16]byte
		copy(tail[:], p)
		h = mix(binary.LittleEndian.Uint64(tail[:])^lane, binary.LittleEndian.Uint64(tail[8:])^h)
	}
	if h = mix(h^lane, k0); h == 0 {
		return 1
	}
	return h
}

// Marshal appends the wire form of p to dst and returns the result.
// The origin must be IPv4.
func (p *Packet) Marshal(dst []byte) ([]byte, error) {
	dst, err := p.AppendHeader(dst)
	if err != nil {
		return nil, err
	}
	return append(dst, p.Payload...), nil
}

// AppendHeader appends the wire form of p up to its payload — the SAP
// header and the payload type — to dst, for a sender that appends the
// payload itself. On error dst comes back unchanged.
func (p *Packet) AppendHeader(dst []byte) ([]byte, error) {
	if !p.Origin.Is4() {
		return dst, fmt.Errorf("%w (origin %s)", ErrIPv6, p.Origin)
	}
	flags := byte(Version << flagVersionShift)
	if p.Type == Delete {
		flags |= flagMessageType
	}
	dst = append(dst, flags, 0) // auth len 0
	dst = binary.BigEndian.AppendUint16(dst, p.MsgIDHash)
	o := p.Origin.As4()
	dst = append(dst, o[:]...)
	pt := p.PayloadType
	if pt == "" {
		pt = PayloadTypeSDP
	}
	dst = append(dst, pt...)
	return append(dst, 0), nil
}

// Decode parses data into p. The payload (and payload type) alias data.
func (p *Packet) Decode(data []byte) error {
	if len(data) < headerLenIPv4 {
		return fmt.Errorf("%w (%d bytes)", ErrTooShort, len(data))
	}
	flags := data[0]
	if v := flags >> flagVersionShift; v != Version {
		return fmt.Errorf("%w (%d)", ErrBadVersion, v)
	}
	if flags&flagAddrType != 0 {
		return ErrIPv6
	}
	if flags&flagEncrypted != 0 {
		return ErrEncrypted
	}
	if flags&flagCompressed != 0 {
		return ErrCompressed
	}
	if flags&flagMessageType != 0 {
		p.Type = Delete
	} else {
		p.Type = Announce
	}
	authLen := int(data[1]) * 4 // auth length is in 32-bit words
	p.MsgIDHash = binary.BigEndian.Uint16(data[2:4])
	p.Origin = netip.AddrFrom4([4]byte(data[4:8]))
	rest := data[8:]
	if len(rest) < authLen {
		return fmt.Errorf("%w (auth data truncated)", ErrTooShort)
	}
	rest = rest[authLen:] // authentication data is skipped, not verified

	// Optional payload type: a NUL-terminated MIME string. Heuristic per
	// RFC 2974: if the payload starts with what looks like a MIME type
	// (contains '/' before any NUL) treat it as one; SDP payloads start
	// with "v=0" and contain no NUL-terminated prefix.
	p.PayloadType = ""
	p.Payload = rest
	for i := 0; i < len(rest); i++ {
		if rest[i] == 0 {
			candidate := rest[:i]
			if !looksLikeMIME(candidate) {
				return fmt.Errorf("%w (%q)", ErrBadPayload, candidate)
			}
			p.PayloadType = internPayloadType(candidate)
			p.Payload = rest[i+1:]
			break
		}
		if rest[i] == '\n' || rest[i] == '\r' {
			// Reached payload body without a NUL: no payload type field.
			break
		}
	}
	return nil
}

// internPayloadType returns the payload-type string without allocating
// for the overwhelmingly common case: every sdr announcement carries
// application/sdp, and comparing a []byte against a string constant
// compiles to a no-alloc comparison. This is the last allocation on the
// SAP decode path — with it interned, Decode is allocation-free for SDP
// traffic (pinned by TestDecodeZeroAlloc).
func internPayloadType(b []byte) string {
	if string(b) == PayloadTypeSDP {
		return PayloadTypeSDP
	}
	return string(b)
}

func looksLikeMIME(b []byte) bool {
	slash := false
	for _, c := range b {
		switch {
		case c == '/':
			slash = true
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '-', c == '+', c == '.':
		default:
			return false
		}
	}
	return slash && len(b) >= 3
}

// EffectivePayloadType returns the payload type, defaulting to SDP.
func (p *Packet) EffectivePayloadType() string {
	if p.PayloadType == "" {
		return PayloadTypeSDP
	}
	return p.PayloadType
}
