package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// On-disk format (DESIGN.md §16). Both store files — snapshot and
// journal — share one frame grammar:
//
//	header:  "SDST" | version (1 byte) | kind (1 byte) | generation (8 bytes BE)
//	record:  length (4 bytes BE) | CRC32C(payload) (4 bytes BE) | payload
//
// Records carry opaque payloads; the store neither parses nor
// interprets them. Classification on read is positional:
//
//   - a frame that runs past end-of-file, or trailing bytes too short
//     to be a frame, or a CRC mismatch on the FINAL frame → torn tail:
//     the expected residue of a crash mid-append, silently dropped;
//   - a CRC mismatch or implausible length anywhere BEFORE the final
//     frame → corruption: bits changed under data that was once whole,
//     so the file is quarantined and only the records before the damage
//     are salvaged.
const (
	recMagic      = "SDST"
	recVersion    = 1
	headerLen     = 4 + 1 + 1 + 8
	frameOverhead = 4 + 4
	// maxRecordLen bounds one record. A length field above it is
	// corruption, not a big record: the largest session description the
	// wire accepts is ~1 KiB, and a snapshot record holds one session.
	maxRecordLen = 1 << 24
)

// File kinds.
const (
	kindSnapshot byte = 1
	kindJournal  byte = 2
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendHeader appends a file header to buf.
func appendHeader(buf []byte, kind byte, gen uint64) []byte {
	buf = append(buf, recMagic...)
	buf = append(buf, recVersion, kind)
	return binary.BigEndian.AppendUint64(buf, gen)
}

// AppendRecord appends one framed record to buf, its payload head then
// body, and returns the extended buffer. It is the one record encoder:
// the frame's length is set and its checksum left zero for the store to
// fill in as it writes the frame (sealFrames), so a caller may frame
// records where it cannot afford to checksum them.
func AppendRecord(buf, head []byte, body string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(head)+len(body)))
	buf = append(buf, 0, 0, 0, 0)
	buf = append(buf, head...)
	return append(buf, body...)
}

// errBadBatch refuses frames that AppendRecord did not build.
var errBadBatch = errors.New("storage: malformed record batch")

// sealFrames fills in the checksum of every frame in frames, a run of
// AppendRecord frames, and returns how many there are. A length running
// past the end of frames or above maxRecordLen fails it before anything
// is written: parseFile would read such a frame as damage.
func sealFrames(frames []byte) (int, error) {
	n := 0
	for rest := frames; len(rest) > 0; n++ {
		if len(rest) < frameOverhead {
			return n, errBadBatch
		}
		size := binary.BigEndian.Uint32(rest)
		if size > maxRecordLen || len(rest)-frameOverhead < int(size) {
			return n, errBadBatch
		}
		end := frameOverhead + int(size)
		binary.BigEndian.PutUint32(rest[4:], crc32.Checksum(rest[frameOverhead:end], castagnoli))
		rest = rest[end:]
	}
	return n, nil
}

// fileImage is the result of parsing one store file.
type fileImage struct {
	kind    byte
	gen     uint64
	records [][]byte // payloads up to the first damage, aliasing the input
	torn    bool     // tail truncated or final-frame CRC mismatch: normal
	corrupt bool     // mid-file damage or foreign header: quarantine
	reason  string   // human-readable classification detail
}

// hasMagic reports whether data begins with this package's file magic.
// A file without it is some other program's: parseFile classifies it
// corrupt, so it is quarantined rather than overwritten.
func hasMagic(data []byte) bool {
	return len(data) >= len(recMagic) && string(data[:len(recMagic)]) == recMagic
}

// parseFile classifies data per the grammar above. It never fails: any
// input yields an image, with torn/corrupt describing what was wrong
// and records holding everything salvageable before the damage.
func parseFile(data []byte) fileImage {
	var img fileImage
	if len(data) < headerLen {
		if !hasMagic(data) && len(data) > 0 {
			img.corrupt = true
			img.reason = "missing file magic"
			return img
		}
		// Empty or a partial header: a crash during file creation.
		img.torn = true
		img.reason = "truncated header"
		return img
	}
	if !hasMagic(data) {
		img.corrupt = true
		img.reason = "missing file magic"
		return img
	}
	if v := data[4]; v != recVersion {
		img.corrupt = true
		img.reason = fmt.Sprintf("unknown format version %d", v)
		return img
	}
	img.kind = data[5]
	if img.kind != kindSnapshot && img.kind != kindJournal {
		img.corrupt = true
		img.reason = fmt.Sprintf("unknown file kind %d", img.kind)
		return img
	}
	img.gen = binary.BigEndian.Uint64(data[6:headerLen])

	rest := data[headerLen:]
	for len(rest) > 0 {
		if len(rest) < frameOverhead {
			img.torn = true
			img.reason = "truncated frame header at tail"
			return img
		}
		n := binary.BigEndian.Uint32(rest[:4])
		if n > maxRecordLen {
			// An implausible length is damage wherever it sits; it
			// cannot be distinguished from a valid continuation, so
			// nothing after it is salvageable either way.
			img.corrupt = true
			img.reason = fmt.Sprintf("implausible record length %d", n)
			return img
		}
		if len(rest) < frameOverhead+int(n) {
			img.torn = true
			img.reason = "truncated record at tail"
			return img
		}
		want := binary.BigEndian.Uint32(rest[4:8])
		payload := rest[frameOverhead : frameOverhead+int(n)]
		if crc32.Checksum(payload, castagnoli) != want {
			if len(rest) == frameOverhead+int(n) {
				// Final frame: a torn write can scribble on the last
				// sectors it touched, so a bad tail CRC is the normal
				// crash residue, not corruption.
				img.torn = true
				img.reason = "checksum mismatch on final record"
				return img
			}
			img.corrupt = true
			img.reason = "checksum mismatch mid-file"
			return img
		}
		img.records = append(img.records, payload)
		rest = rest[frameOverhead+int(n):]
	}
	return img
}
