package session

import (
	"bytes"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

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

// MarshalSDP renders the description in SDP form.
func (d *Description) MarshalSDP() ([]byte, error) {
	return d.AppendSDP(nil)
}

// AppendSDP appends the description's SDP form to dst and returns the
// extended slice; on error dst comes back unchanged. It sizes dst once up
// front, so marshalling into a nil or a recycled buffer allocates at most
// once (free text with invalid UTF-8 may outgrow the estimate).
func (d *Description) AppendSDP(dst []byte) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return dst, err
	}
	user := d.OriginUser
	if user == "" {
		user = "-"
	}
	b := dst
	if n := d.sdpSizeHint(); cap(b)-len(b) < n {
		// Not slices.Grow: under the race detector it allocates twice,
		// which would fail the allocation pins in the -race CI job.
		b = append(make([]byte, 0, len(dst)+n), dst...)
	}
	b = append(b, "v=0\r\no="...)
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

// sdpSizeHint estimates the marshalled size from above for the usual
// description (IPv4 origin, valid UTF-8): exact text lengths plus the
// widest the numbers and addresses can print.
func (d *Description) sdpSizeHint() int {
	// The v= o= s= i= c= b= t= framing comes to 186 bytes with "-" for the
	// user, every number at its widest and both addresses as dotted quads.
	const framing = 192
	n := framing + len(d.OriginUser) + len(d.Name) + len(d.Info)
	for _, a := range d.Attributes {
		n += len("a=\r\n") + len(a)
	}
	for i := range d.Media {
		m := &d.Media[i]
		n += len("m= 65535  \r\n") + len(m.Type) + len(m.Proto) + len(m.Format)
		for _, a := range m.Attributes {
			n += len("a=\r\n") + len(a)
		}
	}
	return n
}

// appendTextLine appends prefix, the free text s and CRLF. CR and LF in s
// become spaces so the text cannot break framing, and bytes that are not
// valid UTF-8 become U+FFFD.
func appendTextLine(b []byte, prefix, s string) []byte {
	b = append(b, prefix...)
	clean := true
	for i := 0; i < len(s) && clean; i++ {
		clean = s[i] != '\r' && s[i] != '\n' && s[i] < utf8.RuneSelf
	}
	if clean {
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
// data may alias a pooled receive buffer (the zero-copy decode path):
// the parser walks it line by line without duplicating the payload, and
// every string the Description retains is a fresh per-line copy, so the
// result stays valid after the buffer is released. Ignored lines cost
// nothing.
func ParseSDP(data []byte) (*Description, error) {
	d := &Description{}
	sawV, sawO, sawS, sawC, sawT := false, false, false, false, false
	rest := data
	for lineNo := 1; len(rest) > 0; lineNo++ {
		var lineB []byte
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			lineB, rest = rest[:i], rest[i+1:]
		} else {
			lineB, rest = rest, nil
		}
		lineB = bytes.TrimRight(lineB, "\r")
		if len(lineB) == 0 {
			continue
		}
		if len(lineB) < 2 || lineB[1] != '=' {
			return nil, fmt.Errorf("sdp: line %d: malformed %q", lineNo, lineB)
		}
		// One small copy per meaningful line; the switch below may retain
		// val (or substrings of it) in the Description.
		key, val := lineB[0], string(lineB[2:])
		switch key {
		case 'v':
			if val != "0" {
				return nil, fmt.Errorf("sdp: unsupported version %q", val)
			}
			sawV = true
		case 'o':
			f := strings.Fields(val)
			if len(f) != 6 || f[3] != "IN" || f[4] != "IP4" {
				return nil, fmt.Errorf("sdp: malformed origin %q", val)
			}
			id, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: origin sess-id: %w", err)
			}
			ver, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: origin sess-version: %w", err)
			}
			addr, err := netip.ParseAddr(f[5])
			if err != nil {
				return nil, fmt.Errorf("sdp: origin address: %w", err)
			}
			d.OriginUser, d.ID, d.Version, d.Origin = f[0], id, ver, addr
			sawO = true
		case 's':
			d.Name = val
			sawS = true
		case 'i':
			d.Info = val
		case 'c':
			f := strings.Fields(val)
			if len(f) != 3 || f[0] != "IN" || f[1] != "IP4" {
				return nil, fmt.Errorf("sdp: malformed connection %q", val)
			}
			addrTTL := strings.SplitN(f[2], "/", 2)
			addr, err := netip.ParseAddr(addrTTL[0])
			if err != nil {
				return nil, fmt.Errorf("sdp: connection address: %w", err)
			}
			d.Group = addr
			if len(addrTTL) == 2 {
				ttl, err := strconv.ParseUint(addrTTL[1], 10, 8)
				if err != nil {
					return nil, fmt.Errorf("sdp: connection TTL: %w", err)
				}
				d.TTL = mcast.TTL(ttl)
			}
			sawC = true
		case 't':
			f := strings.Fields(val)
			if len(f) != 2 {
				return nil, fmt.Errorf("sdp: malformed time %q", val)
			}
			start, err := strconv.ParseUint(f[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: start time: %w", err)
			}
			stop, err := strconv.ParseUint(f[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sdp: stop time: %w", err)
			}
			d.Start, d.Stop = fromNTP(start), fromNTP(stop)
			sawT = true
		case 'b':
			// Only the AS (application-specific, kbps) modifier is used.
			if rest, ok := strings.CutPrefix(val, "AS:"); ok {
				kbps, err := strconv.Atoi(rest)
				if err != nil || kbps < 0 {
					return nil, fmt.Errorf("sdp: malformed bandwidth %q", val)
				}
				d.BandwidthKbps = kbps
			}
		case 'a':
			// Attributes attach to the most recent m= line, or to the
			// session if none has appeared yet.
			if len(d.Media) > 0 {
				m := &d.Media[len(d.Media)-1]
				m.Attributes = append(m.Attributes, val)
			} else {
				d.Attributes = append(d.Attributes, val)
			}
		case 'm':
			f := strings.Fields(val)
			if len(f) < 4 {
				return nil, fmt.Errorf("sdp: malformed media %q", val)
			}
			port, err := strconv.ParseUint(f[1], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("sdp: media port: %w", err)
			}
			d.Media = append(d.Media, Media{
				Type:   f[0],
				Port:   uint16(port),
				Proto:  f[2],
				Format: strings.Join(f[3:], " "),
			})
		default:
			// Unknown lines are ignored, as SDP requires.
		}
	}
	if !sawV || !sawO || !sawS || !sawC || !sawT {
		return nil, fmt.Errorf("sdp: missing mandatory line (v/o/s/c/t)")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
