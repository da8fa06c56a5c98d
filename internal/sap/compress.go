package sap

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
	"sync"
)

// SAP optionally carries zlib-compressed payloads (the C header bit).
// Compression mattered on the Mbone: the shared 4000 bps announcement
// budget means smaller ads directly translate into shorter steady-state
// intervals and therefore a smaller invisible fraction for the allocator.

// maxDecompressed bounds decompression output to keep a hostile packet
// from ballooning (zip-bomb protection); announcements are ~1 kB.
const maxDecompressed = 256 * 1024

// MarshalCompressed appends the wire form of p with a zlib-compressed
// payload (payload type + body compressed together, per RFC 2974 §4).
func (p *Packet) MarshalCompressed(dst []byte) ([]byte, error) {
	if !p.Origin.Is4() {
		return nil, fmt.Errorf("%w (origin %s)", ErrIPv6, p.Origin)
	}
	flags := byte(Version<<flagVersionShift) | flagCompressed
	if p.Type == Delete {
		flags |= flagMessageType
	}
	dst = append(dst, flags, 0)
	dst = append(dst, byte(p.MsgIDHash>>8), byte(p.MsgIDHash))
	o := p.Origin.As4()
	dst = append(dst, o[:]...)

	var body bytes.Buffer
	zw := zlib.NewWriter(&body)
	pt := p.PayloadType
	if pt == "" {
		pt = PayloadTypeSDP
	}
	if _, err := zw.Write(append(append([]byte(pt), 0), p.Payload...)); err != nil {
		return nil, fmt.Errorf("sap: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("sap: compress: %w", err)
	}
	return append(dst, body.Bytes()...), nil
}

// inflater is the per-datagram inflate state worth keeping: the zlib
// reader with its flate window and Huffman tables (40 kB to build, reset
// in place through zlib.Resetter) and the buffer the stream inflates
// into. Nothing in a pooled inflater refers to a datagram.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // nil until a stream with a valid zlib header has come by
	out []byte
}

// inflateBufKeep is the largest output buffer an inflater takes back to
// the pool: announcements are ~1 kB, and one bomb must not pin
// maxDecompressed bytes per pooled inflater.
const inflateBufKeep = 16 << 10

var inflaters = sync.Pool{New: func() any { return &inflater{out: make([]byte, 0, 2048)} }}

// inflate inflates the zlib stream in data into inf.out, refusing output
// beyond maxDecompressed. The result is valid until the inflater's next
// use.
func (inf *inflater) inflate(data []byte) ([]byte, error) {
	inf.src.Reset(data)
	defer inf.src.Reset(nil)
	var err error
	if inf.zr == nil {
		inf.zr, err = zlib.NewReader(&inf.src)
	} else {
		err = inf.zr.(zlib.Resetter).Reset(&inf.src, nil)
	}
	if err != nil {
		return nil, err
	}
	out := inf.out[:0]
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := inf.zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if len(out) > maxDecompressed {
			return nil, fmt.Errorf("inflated payload exceeds %d bytes", maxDecompressed)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if cap(out) <= inflateBufKeep {
		inf.out = out
	}
	return out, nil
}

// DecodeMaybeCompressed decodes data like Decode but also accepts
// compressed packets, inflating them transparently. Unlike Decode, the
// payload of a compressed packet is a fresh, exactly-sized allocation (it
// cannot alias the wire buffer); the inflate state behind it is pooled.
func (p *Packet) DecodeMaybeCompressed(data []byte) error {
	if len(data) < headerLenIPv4 {
		return fmt.Errorf("%w (%d bytes)", ErrTooShort, len(data))
	}
	if data[0]&flagCompressed == 0 {
		return p.Decode(data)
	}
	if data[0]&flagEncrypted != 0 {
		return ErrEncrypted
	}
	authLen := int(data[1]) * 4
	if len(data) < headerLenIPv4+authLen {
		return fmt.Errorf("%w (auth data truncated)", ErrTooShort)
	}
	inf := inflaters.Get().(*inflater)
	defer inflaters.Put(inf)
	inflated, err := inf.inflate(data[headerLenIPv4+authLen:])
	if err != nil {
		return fmt.Errorf("sap: inflate: %w", err)
	}
	// Rebuild an uncompressed packet image and decode it normally so the
	// payload-type parsing stays in one place.
	rebuilt := make([]byte, 0, headerLenIPv4+len(inflated))
	rebuilt = append(rebuilt, data[0]&^flagCompressed, 0)
	rebuilt = append(rebuilt, data[2:headerLenIPv4]...)
	rebuilt = append(rebuilt, inflated...)
	return p.Decode(rebuilt)
}
