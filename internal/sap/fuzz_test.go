package sap

import (
	"bytes"
	"testing"
)

// Native fuzz targets. Without -fuzz they run the seed corpus as ordinary
// tests; with `go test -fuzz='^FuzzDecode$' ./internal/sap` one explores
// (-fuzz must match exactly one target, hence the anchors).

func FuzzDecode(f *testing.F) {
	wire, _ := samplePacket().Marshal(nil)
	f.Add(wire)
	f.Add([]byte{})
	f.Add([]byte{0x20, 0x00, 0x12, 0x34, 10, 0, 0, 1})
	compressed, _ := samplePacket().MarshalCompressed(nil)
	f.Add(compressed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		_ = p.Decode(data) // must not panic
		var q Packet
		_ = q.DecodeMaybeCompressed(data) // must not panic
	})
}

// msgIDHashReference is MsgIDHashOf as it was first written, one byte per
// step: the oracle the four-bytes-per-step fold must equal.
func msgIDHashReference(payload []byte) uint16 {
	var h uint32 = 0x811c
	for _, b := range payload {
		h = (h*31 + uint32(b)) & 0xffffffff
	}
	return uint16(h ^ (h >> 16))
}

// FuzzMsgIDHashMatchesReference checks MsgIDHashOf against the byte loop
// for any payload, and that a packet built the way a sender builds one in
// place — AppendHeader with the payload's hash, the payload behind it — is
// the packet Marshal writes.
func FuzzMsgIDHashMatchesReference(f *testing.F) {
	f.Add([]byte(""), false)
	f.Add([]byte("abc"), true)
	f.Add([]byte("v=0\r\no=- 1 1 IN IP4 10.0.0.1\r\ns=fuzz\r\n"), false)
	f.Add(bytes.Repeat([]byte{0xff}, 67), true)
	f.Fuzz(func(t *testing.T, payload []byte, del bool) {
		want := msgIDHashReference(payload)
		if got := MsgIDHashOf(payload); got != want {
			t.Fatalf("MsgIDHashOf(%q) = %#04x, the byte loop %#04x", payload, got, want)
		}
		p := samplePacket()
		p.Payload = payload
		if del {
			p.Type = Delete
		}
		p.MsgIDHash = want
		marshalled, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := p.AppendHeader([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		wire = append(wire, payload...)[len("prefix"):]
		if !bytes.Equal(wire, marshalled) {
			t.Fatalf("built in place % x\nmarshalled     % x", wire, marshalled)
		}
	})
}

func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("v=0\r\ns=x\r\n"), uint16(7), false)
	f.Add([]byte{}, uint16(0), true)
	f.Fuzz(func(t *testing.T, payload []byte, hash uint16, del bool) {
		p := samplePacket()
		p.Payload = payload
		p.MsgIDHash = hash
		if del {
			p.Type = Delete
		}
		wire, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got Packet
		if err := got.Decode(wire); err != nil {
			// Some payloads legitimately fail (e.g. a payload whose first
			// bytes look like a malformed MIME prefix); they must fail
			// cleanly, not round-trip wrongly.
			return
		}
		if got.MsgIDHash != hash || got.Type != p.Type {
			t.Fatalf("header mutated: %+v", got)
		}
		if got.PayloadType == "" && !bytes.Equal(got.Payload, payload) {
			t.Fatalf("payload mutated: %q vs %q", got.Payload, payload)
		}
	})
}
