package sap

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	payload := []byte("v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=test\r\nc=IN IP4 224.2.128.5/15\r\nt=0 0\r\n")
	return &Packet{
		Type:      Announce,
		MsgIDHash: MsgIDHashOf(payload),
		Origin:    netip.MustParseAddr("10.0.0.1"),
		Payload:   payload,
	}
}

func TestMarshalDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := got.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.MsgIDHash != p.MsgIDHash || got.Origin != p.Origin {
		t.Fatalf("header mismatch: %+v vs %+v", got, p)
	}
	if got.EffectivePayloadType() != PayloadTypeSDP {
		t.Fatalf("payload type %q", got.EffectivePayloadType())
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("payload mismatch:\n%q\n%q", got.Payload, p.Payload)
	}
}

func TestDeleteRoundTrip(t *testing.T) {
	p := samplePacket()
	p.Type = Delete
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := got.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if got.Type != Delete {
		t.Fatalf("type = %v", got.Type)
	}
}

func TestMarshalAppends(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	wire, err := samplePacket().Marshal(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire[:2], prefix) {
		t.Fatal("Marshal did not append")
	}
}

func TestDecodeNoCopyAliases(t *testing.T) {
	wire, _ := samplePacket().Marshal(nil)
	var got Packet
	if err := got.Decode(wire); err != nil {
		t.Fatal(err)
	}
	// Mutating the buffer must show through the decoded payload (NoCopy).
	if len(got.Payload) == 0 {
		t.Fatal("empty payload")
	}
	old := got.Payload[0]
	wire[len(wire)-len(got.Payload)] = old + 1
	if got.Payload[0] != old+1 {
		t.Fatal("payload does not alias the input buffer")
	}
}

func TestDecodeErrors(t *testing.T) {
	wire, _ := samplePacket().Marshal(nil)

	short := wire[:4]
	var p Packet
	if err := p.Decode(short); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short: %v", err)
	}

	badVer := bytes.Clone(wire)
	badVer[0] = 0 // version 0
	if err := p.Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version: %v", err)
	}

	ipv6 := bytes.Clone(wire)
	ipv6[0] |= flagAddrType
	if err := p.Decode(ipv6); !errors.Is(err, ErrIPv6) {
		t.Fatalf("ipv6: %v", err)
	}

	enc := bytes.Clone(wire)
	enc[0] |= flagEncrypted
	if err := p.Decode(enc); !errors.Is(err, ErrEncrypted) {
		t.Fatalf("encrypted: %v", err)
	}

	comp := bytes.Clone(wire)
	comp[0] |= flagCompressed
	if err := p.Decode(comp); !errors.Is(err, ErrCompressed) {
		t.Fatalf("compressed: %v", err)
	}

	truncAuth := bytes.Clone(wire[:8])
	truncAuth[1] = 200 // claims 800 bytes of auth data
	if err := p.Decode(truncAuth); !errors.Is(err, ErrTooShort) {
		t.Fatalf("auth: %v", err)
	}
}

func TestDecodeBadPayloadType(t *testing.T) {
	p := samplePacket()
	wire, _ := p.Marshal(nil)
	// Corrupt the payload type: replace "application/sdp" with binary junk
	// terminated by NUL.
	copy(wire[8:], []byte{0xff, 0xfe, 0x00})
	var got Packet
	if err := got.Decode(wire); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodePayloadWithoutType(t *testing.T) {
	// A packet whose payload starts directly with "v=0" (no MIME prefix):
	// legal per RFC 2974.
	hdr := []byte{Version << flagVersionShift, 0, 0x12, 0x34, 10, 0, 0, 1}
	body := []byte("v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\n")
	var got Packet
	if err := got.Decode(append(hdr, body...)); err != nil {
		t.Fatal(err)
	}
	if got.PayloadType != "" || got.EffectivePayloadType() != PayloadTypeSDP {
		t.Fatalf("payload type %q", got.PayloadType)
	}
	if !bytes.Equal(got.Payload, body) {
		t.Fatalf("payload %q", got.Payload)
	}
}

func TestMarshalRejectsIPv6Origin(t *testing.T) {
	p := samplePacket()
	p.Origin = netip.MustParseAddr("2001:db8::1")
	if _, err := p.Marshal(nil); !errors.Is(err, ErrIPv6) {
		t.Fatalf("err = %v", err)
	}
}

func TestMsgIDHash(t *testing.T) {
	a := MsgIDHashOf([]byte("hello"))
	b := MsgIDHashOf([]byte("hello!"))
	if a == b {
		t.Fatal("different payloads, same hash (collision in trivial case)")
	}
	if MsgIDHashOf([]byte("hello")) != a {
		t.Fatal("hash not deterministic")
	}
	// The values on the wire, recorded from the byte-at-a-time fold: every
	// sender and listener in a scope must agree on them. The lengths cover
	// no whole four-byte step, one step and a tail, and many steps.
	for payload, want := range map[string]uint16{
		"":       0x811c,
		"v":      0xa2d5,
		"hello":  0xbfee,
		"hello!": 0xb9ef,
		"v=0\r\no=- 4711 3 IN IP4 10.1.2.3\r\ns=golden\r\nc=IN IP4 224.2.128.99/127\r\nt=0 0\r\n": 0x0bdc,
	} {
		if got := MsgIDHashOf([]byte(payload)); got != want {
			t.Errorf("MsgIDHashOf(%q) = %#04x, want %#04x", payload, got, want)
		}
	}
}

func TestMessageTypeString(t *testing.T) {
	if Announce.String() != "announce" || Delete.String() != "delete" {
		t.Fatal("names")
	}
	if MessageType(7).String() != "MessageType(7)" {
		t.Fatal("unknown name")
	}
}

func TestRoundTripProperty(t *testing.T) {
	err := quick.Check(func(hash uint16, o4 [4]byte, payload []byte, del bool) bool {
		if o4[0] == 0 {
			o4[0] = 10
		}
		p := &Packet{
			MsgIDHash: hash,
			Origin:    netip.AddrFrom4(o4),
			Payload:   payload,
		}
		if del {
			p.Type = Delete
		}
		wire, err := p.Marshal(nil)
		if err != nil {
			return false
		}
		var got Packet
		if err := got.Decode(wire); err != nil {
			return false
		}
		return got.Type == p.Type && got.MsgIDHash == hash &&
			got.Origin == p.Origin && bytes.Equal(got.Payload, payload) &&
			got.EffectivePayloadType() == PayloadTypeSDP
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeFuzzCrashSafety(t *testing.T) {
	// Decode must never panic on arbitrary input.
	err := quick.Check(func(data []byte) bool {
		var p Packet
		_ = p.Decode(data)
		return true
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecode(b *testing.B) {
	wire, _ := samplePacket().Marshal(nil)
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = p.Marshal(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeZeroAlloc pins the zero-copy decode promise: decoding an
// SDP announcement performs no allocation at all — the payload aliases
// the input and the payload type is interned against PayloadTypeSDP.
func TestDecodeZeroAlloc(t *testing.T) {
	wire, err := samplePacket().Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	allocs := testing.AllocsPerRun(1000, func() {
		if err := p.Decode(wire); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Decode allocates %v times per run, want 0", allocs)
	}
	if p.PayloadType != PayloadTypeSDP {
		t.Fatalf("payload type %q not interned", p.PayloadType)
	}
}

// TestInternPayloadType checks the non-SDP MIME path still decodes
// (with its one unavoidable allocation) and that the interned constant
// is returned by identity for SDP.
func TestInternPayloadType(t *testing.T) {
	if got := internPayloadType([]byte("application/sdp")); got != PayloadTypeSDP {
		t.Fatalf("intern = %q", got)
	}
	if got := internPayloadType([]byte("text/plain")); got != "text/plain" {
		t.Fatalf("intern = %q", got)
	}
	p := samplePacket()
	p.PayloadType = "text/plain"
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := got.Decode(wire); err != nil {
		t.Fatal(err)
	}
	if got.PayloadType != "text/plain" {
		t.Fatalf("payload type %q", got.PayloadType)
	}
}

// TestPayloadDigest: every byte, the length and the seed reach the digest,
// and 0 — "no digest" to its users — is never returned.
func TestPayloadDigest(t *testing.T) {
	payload := samplePacket().Payload
	base := PayloadDigest(7, payload)
	if base != PayloadDigest(7, append([]byte(nil), payload...)) {
		t.Fatal("digest of equal bytes differs")
	}
	if base == PayloadDigest(8, payload) {
		t.Error("seed does not reach the digest")
	}
	seen := map[uint64]int{base: -1}
	for i := range payload {
		mutated := append([]byte(nil), payload...)
		mutated[i] ^= 0x20
		d := PayloadDigest(7, mutated)
		if j, dup := seen[d]; dup {
			t.Errorf("flipping byte %d collides with %d", i, j)
		}
		seen[d] = i
	}
	for n := 0; n <= 40; n++ {
		zeros := make([]byte, n)
		d := PayloadDigest(7, zeros)
		if d == 0 {
			t.Errorf("digest of %d zero bytes is 0", n)
		}
		if j, dup := seen[d]; dup {
			t.Errorf("%d zero bytes collide with %d", n, j)
		}
		seen[d] = 1000 + n
	}
	if n := testing.AllocsPerRun(100, func() { _ = PayloadDigest(7, payload) }); n != 0 {
		t.Errorf("PayloadDigest: %v allocs, want 0", n)
	}
}

func BenchmarkPayloadDigest(b *testing.B) {
	payload := bytes.Repeat([]byte("a=tool:sdr v2.4a6\r\n"), 21) // 399 bytes
	b.SetBytes(int64(len(payload)))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += PayloadDigest(uint64(i), payload)
	}
	_ = sink
}
