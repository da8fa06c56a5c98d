package session

import (
	"bytes"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"sessiondir/internal/mcast"
)

// This file implements the SDP subset sdr announcements use:
//
//	v=0
//	o=<user> <sess-id> <sess-version> IN IP4 <origin>
//	s=<name>
//	i=<info>                (optional)
//	c=IN IP4 <group>/<ttl>
//	t=<start> <stop>        (NTP timestamps; 0 = unbounded)
//	m=<type> <port> <proto> <format>  (repeated)
//
// Times use the NTP epoch (1900-01-01) per SDP convention.

// ntpEpochOffset is the difference between the NTP and Unix epochs.
const ntpEpochOffset = 2208988800

func toNTP(t time.Time) uint64 {
	if t.IsZero() {
		return 0
	}
	return uint64(t.Unix() + ntpEpochOffset)
}

func fromNTP(v uint64) time.Time {
	if v == 0 {
		return time.Time{}
	}
	return time.Unix(int64(v)-ntpEpochOffset, 0).UTC()
}

// MarshalSDP renders the description in SDP form. It encodes into room on
// the stack and copies the result out, so a payload of up to 1 kB costs one
// allocation of exactly its length.
func (d *Description) MarshalSDP() ([]byte, error) {
	var room [1 << 10]byte
	b, err := d.AppendSDP(room[:0])
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// AppendSDP appends the description's SDP form to dst, as append does, and
// returns the extended slice; on error dst comes back unchanged.
func (d *Description) AppendSDP(dst []byte) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return dst, err
	}
	user := d.OriginUser
	if user == "" {
		user = "-"
	}
	b := append(dst, "v=0\r\no="...)
	b = append(b, user...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, d.ID, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, d.Version, 10)
	b = append(b, " IN IP4 "...)
	b = appendAddr(b, d.Origin)
	b = append(b, "\r\n"...)
	b = appendTextLine(b, "s=", d.Name)
	if d.Info != "" {
		b = appendTextLine(b, "i=", d.Info)
	}
	b = append(b, "c=IN IP4 "...)
	b = appendAddr(b, d.Group)
	b = append(b, '/')
	b = strconv.AppendUint(b, uint64(d.TTL), 10)
	b = append(b, "\r\n"...)
	if d.BandwidthKbps > 0 {
		b = append(b, "b=AS:"...)
		b = strconv.AppendInt(b, int64(d.BandwidthKbps), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "t="...)
	b = strconv.AppendUint(b, toNTP(d.Start), 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, toNTP(d.Stop), 10)
	b = append(b, "\r\n"...)
	for _, a := range d.Attributes {
		b = appendTextLine(b, "a=", a)
	}
	for i := range d.Media {
		m := &d.Media[i]
		b = append(b, "m="...)
		b = append(b, m.Type...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, uint64(m.Port), 10)
		b = append(b, ' ')
		b = append(b, m.Proto...)
		b = append(b, ' ')
		b = append(b, m.Format...)
		b = append(b, "\r\n"...)
		for _, a := range m.Attributes {
			b = appendTextLine(b, "a=", a)
		}
	}
	return b, nil
}

// textClean reports whether free text goes out as it is: no CR, no LF and
// only ASCII. It tests eight bytes at a time.
func textClean(s string) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		// With no high bit set in w, (x-ones)&^x has one exactly where a
		// byte of x is zero, that is where a byte of w is CR or LF.
		cr, lf := w^(ones*'\r'), w^(ones*'\n')
		if (w|(cr-ones)&^cr|(lf-ones)&^lf)&highs != 0 {
			return false
		}
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\r' || c == '\n' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// appendTextLine appends prefix, the free text s and CRLF. CR and LF in s
// become spaces so the text cannot break framing, and bytes that are not
// valid UTF-8 become U+FFFD.
func appendTextLine(b []byte, prefix, s string) []byte {
	b = append(b, prefix...)
	if textClean(s) {
		b = append(b, s...)
	} else {
		for _, r := range s {
			if r == '\r' || r == '\n' {
				r = ' '
			}
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, "\r\n"...)
}

// ParseSDP parses the SDP subset back into a Description.
//
// data may alias a received datagram on loan (the zero-copy decode path) and
// is not retained. The parser walks it in place, twice. The first walk
// checks every line and reads the numbers and addresses, and counts what
// the Description will keep; the second copies exactly that much: all
// retained text into one backing string, every attribute line into one
// []string the session and its media share window by window, the media
// into one []Media. A parse therefore allocates at most four times, and a
// cached Description holds no slack. Ignored lines cost nothing. Fields
// split where strings.Fields would split them, and any number or address
// not in its plainest spelling goes to strconv or netip for the verdict.
func ParseSDP(data []byte) (*Description, error) {
	d := &Description{}
	var keep retained
	if err := d.scanSDP(data, &keep); err != nil {
		return nil, err
	}
	d.retainSDP(&keep)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// ScanSDP is ParseSDP for a caller that reads only the Summary: the same
// walk over data and the same checks, with the same verdict and error
// text, but nothing is copied — it allocates only on the way to an error.
// data may alias a datagram on loan and is not retained.
func ScanSDP(data []byte) (Summary, error) {
	var d Description
	var keep retained
	if err := d.scanSDP(data, &keep); err != nil {
		return Summary{}, err
	}
	// Validate's checks on what the scan read, in its order. The first
	// that fails is left to Validate itself, on the retained description,
	// for its error text. (A media type is never empty: scanSDP requires
	// every m= line to have one.)
	if len(keep.name) == 0 || !d.Origin.IsValid() || !d.Group.IsValid() || !mcast.IsMulticast(d.Group) ||
		!d.Stop.IsZero() && !d.Start.IsZero() && d.Stop.Before(d.Start) || keep.portless {
		d.retainSDP(&keep)
		if err := d.Validate(); err != nil {
			return Summary{}, err
		}
	}
	return d.Summary(), nil
}

// ParseSDPString is ParseSDP of a payload held as a string, parsed in
// place: ParseSDP neither writes nor keeps its input.
func ParseSDPString(data string) (*Description, error) {
	return ParseSDP(unsafe.Slice(unsafe.StringData(data), len(data)))
}

// retained is what scanSDP found that the Description keeps by copy: the
// last o= user, s= and i= texts (a repeated line overrides the earlier
// one), and the totals the a= and m= lines come to; and portless, whether
// an m= line has port 0, which Validate rejects.
type retained struct {
	user, name, info []byte
	lines            []byte // data from its first a= or m= line on
	text             int    // bytes of attribute and media text
	attrs, media     int
	portless         bool
}

// scanSDP checks data line by line and stores everything in d that is not
// text or a slice.
func (d *Description) scanSDP(data []byte, keep *retained) error {
	sawV, sawO, sawS, sawC, sawT := false, false, false, false, false
	rest := data
	for lineNo := 1; len(rest) > 0; lineNo++ {
		from := rest
		var line []byte
		line, rest = cutLine(rest)
		if len(line) == 0 {
			continue
		}
		if len(line) < 2 || line[1] != '=' {
			return fmt.Errorf("sdp: line %d: malformed %q", lineNo, line)
		}
		if keep.lines == nil && (line[0] == 'a' || line[0] == 'm') {
			keep.lines = from
		}
		val := line[2:]
		switch line[0] {
		case 'v':
			if string(val) != "0" {
				return fmt.Errorf("sdp: unsupported version %q", val)
			}
			sawV = true
		case 'o':
			var f [6][]byte
			if fields(val, f[:]) != 6 || string(f[3]) != "IN" || string(f[4]) != "IP4" {
				return fmt.Errorf("sdp: malformed origin %q", val)
			}
			id, err := parseUint(f[1], 64)
			if err != nil {
				return fmt.Errorf("sdp: origin sess-id: %w", err)
			}
			ver, err := parseUint(f[2], 64)
			if err != nil {
				return fmt.Errorf("sdp: origin sess-version: %w", err)
			}
			addr, err := parseAddr(f[5])
			if err != nil {
				return fmt.Errorf("sdp: origin address: %w", err)
			}
			keep.user, d.ID, d.Version, d.Origin = f[0], id, ver, addr
			sawO = true
		case 's':
			keep.name = val
			sawS = true
		case 'i':
			keep.info = val
		case 'c':
			var f [3][]byte
			if fields(val, f[:]) != 3 || string(f[0]) != "IN" || string(f[1]) != "IP4" {
				return fmt.Errorf("sdp: malformed connection %q", val)
			}
			group, ttl, scoped := bytes.Cut(f[2], []byte("/"))
			addr, err := parseAddr(group)
			if err != nil {
				return fmt.Errorf("sdp: connection address: %w", err)
			}
			d.Group = addr
			if scoped {
				v, err := parseUint(ttl, 8)
				if err != nil {
					return fmt.Errorf("sdp: connection TTL: %w", err)
				}
				d.TTL = mcast.TTL(v)
			}
			sawC = true
		case 't':
			var f [2][]byte
			if fields(val, f[:]) != 2 {
				return fmt.Errorf("sdp: malformed time %q", val)
			}
			start, err := parseUint(f[0], 64)
			if err != nil {
				return fmt.Errorf("sdp: start time: %w", err)
			}
			stop, err := parseUint(f[1], 64)
			if err != nil {
				return fmt.Errorf("sdp: stop time: %w", err)
			}
			d.Start, d.Stop = fromNTP(start), fromNTP(stop)
			sawT = true
		case 'b':
			// Only the AS (application-specific, kbps) modifier is used.
			if as, ok := bytes.CutPrefix(val, []byte("AS:")); ok {
				kbps, err := parseInt(as)
				if err != nil || kbps < 0 {
					return fmt.Errorf("sdp: malformed bandwidth %q", val)
				}
				d.BandwidthKbps = kbps
			}
		case 'a':
			keep.attrs++
			keep.text += len(val)
		case 'm':
			var f [3][]byte // type, port, proto; the format is what follows
			n, format := fieldsAndRest(val, f[:])
			formatLen, formatFields := 0, 0
			for {
				var w []byte
				if w, format = nextField(format); len(w) == 0 {
					break
				}
				formatLen += len(w)
				formatFields++
			}
			if n < 3 || formatFields == 0 {
				return fmt.Errorf("sdp: malformed media %q", val)
			}
			port, err := parseUint(f[1], 16)
			if err != nil {
				return fmt.Errorf("sdp: media port: %w", err)
			}
			keep.portless = keep.portless || port == 0
			keep.media++
			keep.text += len(f[0]) + len(f[2]) + formatLen + formatFields - 1
		default:
			// Unknown lines are ignored, as SDP requires.
		}
	}
	if !sawV || !sawO || !sawS || !sawC || !sawT {
		return fmt.Errorf("sdp: missing mandatory line (v/o/s/c/t)")
	}
	return nil
}

// retainSDP copies into d what scanSDP counted, from lines it has already
// checked.
func (d *Description) retainSDP(keep *retained) {
	var text textArena
	text.Grow(len(keep.user) + len(keep.name) + len(keep.info) + keep.text)
	d.OriginUser, d.Name, d.Info = text.keep(keep.user), text.keep(keep.name), text.keep(keep.info)
	var attrs []string
	if keep.attrs > 0 {
		attrs = make([]string, 0, keep.attrs)
	}
	if keep.media > 0 {
		d.Media = make([]Media, 0, keep.media)
	}
	// Attributes attach to the most recent m= line, or to the session if
	// none has appeared yet. Either way an owner's a= lines are consecutive,
	// so its list is a window of attrs, capped so that appending to one
	// list cannot reach into the next.
	owner := &d.Attributes
	for rest := keep.lines; len(rest) > 0; {
		var line []byte
		line, rest = cutLine(rest)
		if len(line) < 2 {
			continue
		}
		val := line[2:]
		switch line[0] {
		case 'a':
			attrs = append(attrs, text.keep(val))
			*owner = attrs[len(attrs)-len(*owner)-1 : len(attrs) : len(attrs)]
		case 'm':
			var f [3][]byte
			_, format := fieldsAndRest(val, f[:])
			port, _ := parseUint(f[1], 16)
			m := Media{Type: text.keep(f[0]), Port: uint16(port), Proto: text.keep(f[2])}
			// The format is the remaining fields joined by single spaces.
			start := text.Len()
			for i := 0; ; i++ {
				var w []byte
				if w, format = nextField(format); len(w) == 0 {
					break
				}
				if i > 0 {
					text.WriteByte(' ')
				}
				text.Write(w)
			}
			m.Format = text.String()[start:]
			d.Media = append(d.Media, m)
			owner = &d.Media[len(d.Media)-1].Attributes
		}
	}
}

// textArena is the one backing string of a parsed Description. Grown once
// to the exact total, it never moves, so the strings cut from it while it
// fills stay valid.
type textArena struct{ strings.Builder }

func (t *textArena) keep(b []byte) string {
	start := t.Len()
	t.Write(b)
	return t.String()[start:]
}

// cutLine cuts the first line off data and drops its line end: the LF and
// any CRs before it.
func cutLine(data []byte) (line, rest []byte) {
	line = data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	}
	for len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, rest
}

// nextField returns the first field of b — a run of bytes that are not
// white space — and what follows it; an empty field means b holds none.
// White space is what strings.Fields splits at: unicode.IsSpace of each
// rune, a byte that is not UTF-8 counting as U+FFFD.
func nextField(b []byte) (field, rest []byte) {
	// The usual case first: printable ASCII between single spaces.
	lo := 0
	for lo < len(b) && b[lo] == ' ' {
		lo++
	}
	hi := lo
	for hi < len(b) && b[hi] > ' ' && b[hi] < utf8.RuneSelf {
		hi++
	}
	if hi > lo && (hi == len(b) || b[hi] == ' ') {
		return b[lo:hi], b[hi:]
	}
	start := -1
	for i := 0; i < len(b); {
		c, w := b[i], 1
		space := c == ' ' || c >= '\t' && c <= '\r' // unicode.IsSpace below U+0080
		if c >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRune(b[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				return b[start:i], b[i:]
			}
		} else if start < 0 {
			start = i
		}
		i += w
	}
	if start < 0 {
		return nil, nil
	}
	return b[start:], nil
}

// fieldsAndRest stores the first len(dst) fields of b in dst and returns
// how many of them there were and what follows the last one.
func fieldsAndRest(b []byte, dst [][]byte) (n int, rest []byte) {
	for n < len(dst) {
		if dst[n], b = nextField(b); len(dst[n]) == 0 {
			break
		}
		n++
	}
	return n, b
}

// fields stores the first len(dst) fields of b in dst and returns how many
// b has, counting one past len(dst) at most.
func fields(b []byte, dst [][]byte) int {
	n, rest := fieldsAndRest(b, dst)
	if extra, _ := nextField(rest); len(extra) > 0 {
		n++
	}
	return n
}

// parseUint is strconv.ParseUint(string(b), 10, bitSize). A run of at most
// nineteen digits, which cannot overflow, is read in place; strconv judges
// everything else, so what is accepted and every error are its own.
func parseUint(b []byte, bitSize int) (uint64, error) {
	if v, ok := decimal(b); ok && (bitSize == 64 || v>>bitSize == 0) {
		return v, nil
	}
	return strconv.ParseUint(string(b), 10, bitSize)
}

// parseInt is strconv.Atoi(string(b)), with the same in-place reading of
// plain digits (eighteen fit an int; signs go to strconv).
func parseInt(b []byte) (int, error) {
	if v, ok := decimal(b); ok && len(b) <= 18 {
		return int(v), nil
	}
	return strconv.Atoi(string(b))
}

func decimal(b []byte) (v uint64, ok bool) {
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// parseAddr is netip.ParseAddr(string(b)): a dotted quad the way
// netip prints one is read in place, netip judges every other spelling.
func parseAddr(b []byte) (netip.Addr, error) {
	if quad, ok := dottedQuad(b); ok {
		return netip.AddrFrom4(quad), nil
	}
	return netip.ParseAddr(string(b))
}

// dottedQuad reads four dot-separated octets, each one to three digits
// with no leading zero and at most 255, and nothing else.
func dottedQuad(b []byte) (quad [4]byte, ok bool) {
	for i := range quad {
		n := 0
		for n < len(b) && n < 3 && b[n] >= '0' && b[n] <= '9' {
			n++
		}
		v, ok := decimal(b[:n])
		if !ok || v > 255 || (n > 1 && b[0] == '0') {
			return quad, false
		}
		quad[i], b = byte(v), b[n:]
		if i < 3 {
			if len(b) == 0 || b[0] != '.' {
				return quad, false
			}
			b = b[1:]
		}
	}
	return quad, len(b) == 0
}

// PeekKey appends to dst the key — Key() — of the description in payload
// as its first o= line spells it: the raw address field, '/', the raw
// sess-id field. It parses nothing, so what it returns is a lookup hint,
// never an identity: a payload that spells either field other than Key
// would (leading zeros, an IPv6 form), or that a later o= line overrides,
// yields a key its description does not have. dst comes back unchanged
// when there is no o= line with six fields or the key does not fit dst's
// spare capacity (the longest IPv4 key is 36 bytes).
func PeekKey(dst, payload []byte) []byte {
	line := payload
	if !bytes.HasPrefix(line, []byte("o=")) {
		i := bytes.Index(payload, []byte("\no="))
		if i < 0 {
			return dst
		}
		line = payload[i+1:]
	}
	// The usual o= line: printable ASCII fields between single spaces, the
	// sixth ending the line. Anything else goes to nextField.
	var id, addr []byte
	n := 0
	for rest := line[2:]; n < 6; n++ {
		lo := 0
		for lo < len(rest) && rest[lo] == ' ' {
			lo++
		}
		hi := lo
		for hi < len(rest) && rest[hi] > ' ' && rest[hi] < utf8.RuneSelf {
			hi++
		}
		if hi == lo || hi < len(rest) && rest[hi] != ' ' && (n < 5 || rest[hi] > '\r' || rest[hi] < '\t') {
			var f [6][]byte
			line, _ = cutLine(line)
			n, _ = fieldsAndRest(line[2:], f[:])
			id, addr = f[1], f[5]
			break
		}
		if n == 1 {
			id = rest[lo:hi]
		}
		addr, rest = rest[lo:hi], rest[hi:] // the sixth field, once n is 5
	}
	if n == 6 && len(addr)+1+len(id) <= cap(dst)-len(dst) {
		dst = append(append(append(dst, addr...), '/'), id...)
	}
	return dst
}
