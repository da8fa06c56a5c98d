package sap

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestCompressedRoundTrip(t *testing.T) {
	p := samplePacket()
	wire, err := p.MarshalCompressed(nil)
	if err != nil {
		t.Fatal(err)
	}
	var got Packet
	if err := got.DecodeMaybeCompressed(wire); err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.MsgIDHash != p.MsgIDHash || got.Origin != p.Origin {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.EffectivePayloadType() != PayloadTypeSDP {
		t.Fatalf("payload type %q", got.EffectivePayloadType())
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
}

func TestCompressedActuallyCompresses(t *testing.T) {
	p := samplePacket()
	// Pad with a repetitive description so compression has something to
	// chew on.
	p.Payload = append(p.Payload, bytes.Repeat([]byte("a=tool:sdr v2.4a6\r\n"), 50)...)
	p.MsgIDHash = MsgIDHashOf(p.Payload)
	plain, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := p.MarshalCompressed(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(compressed) >= len(plain)/2 {
		t.Fatalf("compression ineffective: %d vs %d", len(compressed), len(plain))
	}
}

func TestDecodeMaybeCompressedPassthrough(t *testing.T) {
	// Uncompressed packets take the normal path.
	wire, _ := samplePacket().Marshal(nil)
	var got Packet
	if err := got.DecodeMaybeCompressed(wire); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, samplePacket().Payload) {
		t.Fatal("passthrough mangled payload")
	}
}

func TestPlainDecodeRejectsCompressed(t *testing.T) {
	wire, _ := samplePacket().MarshalCompressed(nil)
	var got Packet
	if err := got.Decode(wire); !errors.Is(err, ErrCompressed) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeMaybeCompressedGarbage(t *testing.T) {
	wire, _ := samplePacket().MarshalCompressed(nil)
	// Corrupt the zlib stream.
	wire[len(wire)-3] ^= 0xff
	wire[9] ^= 0xff
	var got Packet
	if err := got.DecodeMaybeCompressed(wire); err == nil {
		t.Fatal("corrupted stream accepted")
	}
	// Truncated.
	if err := got.DecodeMaybeCompressed(wire[:4]); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short: %v", err)
	}
}

func TestDecodeMaybeCompressedBombBounded(t *testing.T) {
	p := samplePacket()
	p.Payload = bytes.Repeat([]byte{0}, maxDecompressed+4096)
	wire, err := p.MarshalCompressed(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) > 8192 {
		t.Fatalf("bomb wire unexpectedly large: %d", len(wire))
	}
	var got Packet
	err = got.DecodeMaybeCompressed(wire)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("bomb not rejected: %v", err)
	}
}

func TestCompressedRoundTripProperty(t *testing.T) {
	err := quick.Check(func(payload []byte, hash uint16, del bool) bool {
		p := samplePacket()
		p.Payload = payload
		p.MsgIDHash = hash
		if del {
			p.Type = Delete
		}
		wire, err := p.MarshalCompressed(nil)
		if err != nil {
			return false
		}
		var got Packet
		if err := got.DecodeMaybeCompressed(wire); err != nil {
			return false
		}
		return bytes.Equal(got.Payload, payload) && got.MsgIDHash == hash && got.Type == p.Type
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodeCompressedAllocations pins the pooled inflate: the payload
// image is the one allocation a compressed decode needs, zlib's checksum
// object a second; a reader built per datagram cost ten and 40 kB.
func TestDecodeCompressedAllocations(t *testing.T) {
	wire, err := samplePacket().MarshalCompressed(nil)
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if n := testing.AllocsPerRun(200, func() {
		if err := p.DecodeMaybeCompressed(wire); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Fatalf("compressed decode: %v allocs, want <= 3", n)
	}
}

// TestPooledInflateKeepsNothing: a payload decoded after a failed or a
// larger stream went through the same pooled state is its own, and an
// earlier result is not rewritten by a later decode.
func TestPooledInflateKeepsNothing(t *testing.T) {
	small := samplePacket()
	big := samplePacket()
	big.Payload = bytes.Repeat([]byte("a=tool:sdr v2.4a6\r\n"), 4000) // outgrows the kept buffer
	smallWire, _ := small.MarshalCompressed(nil)
	bigWire, _ := big.MarshalCompressed(nil)
	bad := append([]byte(nil), smallWire...)
	bad[len(bad)-3] ^= 0xff // checksum

	var first, got Packet
	if err := first.DecodeMaybeCompressed(smallWire); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := got.DecodeMaybeCompressed(bad); err == nil {
			t.Fatal("corrupt stream accepted")
		}
		if err := got.DecodeMaybeCompressed(bigWire); err != nil || !bytes.Equal(got.Payload, big.Payload) {
			t.Fatalf("big payload after a failure: err %v, %d bytes", err, len(got.Payload))
		}
		if err := got.DecodeMaybeCompressed(smallWire); err != nil || !bytes.Equal(got.Payload, small.Payload) {
			t.Fatalf("small payload after a big one: err %v, %q", err, got.Payload)
		}
	}
	if !bytes.Equal(first.Payload, small.Payload) {
		t.Fatalf("an earlier decode's payload was rewritten: %q", first.Payload)
	}
	if cap(got.Payload) > len(got.Payload)+headerLenIPv4+len(PayloadTypeSDP)+1 {
		t.Fatalf("payload of %d bytes sits in %d: not exactly sized", len(got.Payload), cap(got.Payload))
	}
}
