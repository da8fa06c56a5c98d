package session

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sessiondir/internal/mcast"
)

// refKey and refMarshalSDP are the fmt-based codec the appenders replaced,
// kept as the byte-for-byte oracle of FuzzMarshalSDPMatchesReference.
func refKey(d *Description) string {
	return fmt.Sprintf("%s/%d", d.Origin, d.ID)
}

func refMarshalSDP(d *Description) ([]byte, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	sanitize := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r == '\r' || r == '\n' {
				return ' '
			}
			return r
		}, s)
	}
	var b strings.Builder
	user := d.OriginUser
	if user == "" {
		user = "-"
	}
	fmt.Fprintf(&b, "v=0\r\n")
	fmt.Fprintf(&b, "o=%s %d %d IN IP4 %s\r\n", user, d.ID, d.Version, d.Origin)
	fmt.Fprintf(&b, "s=%s\r\n", sanitize(d.Name))
	if d.Info != "" {
		fmt.Fprintf(&b, "i=%s\r\n", sanitize(d.Info))
	}
	fmt.Fprintf(&b, "c=IN IP4 %s/%d\r\n", d.Group, d.TTL)
	if d.BandwidthKbps > 0 {
		fmt.Fprintf(&b, "b=AS:%d\r\n", d.BandwidthKbps)
	}
	fmt.Fprintf(&b, "t=%d %d\r\n", toNTP(d.Start), toNTP(d.Stop))
	for _, a := range d.Attributes {
		fmt.Fprintf(&b, "a=%s\r\n", sanitize(a))
	}
	for _, m := range d.Media {
		fmt.Fprintf(&b, "m=%s %d %s %s\r\n", m.Type, m.Port, m.Proto, m.Format)
		for _, a := range m.Attributes {
			fmt.Fprintf(&b, "a=%s\r\n", sanitize(a))
		}
	}
	return []byte(b.String()), nil
}

// refParseSDP is the parser ParseSDP replaced — strings.Fields, SplitN,
// strconv and netip over a string copy of every line — moved here verbatim
// as the oracle of FuzzParseSDPMatchesReference.
func refParseSDP(data []byte) (*Description, error) {
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

func FuzzMarshalSDPMatchesReference(f *testing.F) {
	// user, name, info, session attribute, media attribute, origin, group,
	// id, version, start, stop (Unix seconds; 0 = unbounded), kbps, ttl.
	f.Add("mjh", "Mbone Tools Seminar", "weekly seminar", "tool:sdr", "ptime:40", "10.1.2.3", "224.2.130.7",
		uint64(12345), uint64(2), int64(904658400), int64(904665600), 0, uint8(127))
	f.Add("", "line\r\nbreak", "cr\ronly", "a\nb", "x\r\ny", "10.0.0.1", "239.255.0.1",
		uint64(0), uint64(0), int64(0), int64(0), 128, uint8(1))
	f.Add("u\xff", "bad\xffutf8\xc3", "\xed\xa0\x80 surrogate", "\xf8\x88", "tail\xe2\x82", "2001:db8::1%eth0", "224.0.0.1",
		^uint64(0), ^uint64(0), int64(-3000000000), int64(1<<40), 1<<31-1, uint8(255))
	f.Add("-", "valid � replacement and é", "", "", "", "::ffff:10.1.2.3", "224.2.0.0",
		uint64(7), uint64(1), int64(0), int64(5), -4, uint8(0))
	f.Add("x", "", "", "", "", "not an address", "10.0.0.1", // both invalid: the errors must agree
		uint64(1), uint64(1), int64(0), int64(0), 0, uint8(15))
	// Every number at a power of ten, where a decimal width turns over;
	// CR, LF and bytes past ASCII on either side of an eight-byte word.
	f.Add("1234567\r", "seven b\nno CR after", "\xff234567\xfe2345678", "clean 8!", "0123456789abcdef", "fe80::1", "224.2.0.1",
		uint64(10), uint64(100), int64(0), int64(0), 1000, uint8(10))
	f.Add("é", "\r\n\r\n\r\n\r\n", "ascii only, no line end at all", "\xc3", "ok", "2001:db8::10", "239.1.10.100",
		uint64(9999999999), uint64(1e19), int64(0), int64(0), 10, uint8(100))
	f.Fuzz(func(t *testing.T, user, name, info, attr, mattr, origin, group string,
		id, version uint64, start, stop int64, kbps int, ttl uint8) {
		d := &Description{
			ID: id, Version: version, OriginUser: user, Name: name, Info: info,
			TTL: mcast.TTL(ttl), BandwidthKbps: kbps,
			Media: []Media{
				{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0", Attributes: []string{mattr, attr}},
				{Type: user + "v", Port: uint16(id) | 1, Proto: name + "p", Format: "31 " + info},
			},
		}
		d.Origin, _ = netip.ParseAddr(origin)
		d.Group, _ = netip.ParseAddr(group)
		if attr != "" {
			d.Attributes = []string{attr, mattr}
		}
		if start != 0 {
			d.Start = time.Unix(start, 0)
		}
		if stop != 0 {
			d.Stop = time.Unix(stop, 0)
		}

		if got, want := d.Key(), refKey(d); got != want {
			t.Fatalf("Key() = %q, reference %q", got, want)
		}
		want, wantErr := refMarshalSDP(d)
		got, err := d.MarshalSDP()
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("MarshalSDP error %v, reference %v", err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalSDP differs from the reference:\n%q\n%q", got, want)
		}
		if err == nil && (d.SDPLen() != len(want) || cap(got) != len(got)) {
			t.Fatalf("SDPLen() = %d, MarshalSDP writes %d bytes into %d: %q", d.SDPLen(), len(got), cap(got), got)
		}
		for _, text := range []string{user, name, info, attr, mattr} {
			if got, want := textClean(text), refTextClean(text); got != want {
				t.Fatalf("textClean(%q) = %v, reference %v", text, got, want)
			}
		}
		// Appending must leave what dst already holds alone, error or not.
		appended, _ := d.AppendSDP([]byte("prefix"))
		if !bytes.Equal(appended, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendSDP onto a prefix: %q", appended)
		}
	})
}

// refTextClean is textClean a byte at a time.
func refTextClean(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '\r' || s[i] == '\n' || s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// TestCodecAllocations pins the codec's share of the listener fast path:
// one allocation each for the key and for a marshalled description.
func TestCodecAllocations(t *testing.T) {
	d := sampleDesc()
	d.Attributes = []string{"tool:sdr", "type:meeting"}
	d.Media[1].Attributes = []string{"framerate:15"}
	if n := testing.AllocsPerRun(100, func() { _ = d.Key() }); n > 1 {
		t.Errorf("Key: %v allocs, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = d.MarshalSDP() }); n > 1 {
		t.Errorf("MarshalSDP: %v allocs, want <= 1", n)
	}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { _, _ = d.AppendSDP(buf) }); n != 0 {
		t.Errorf("AppendSDP into a large enough buffer: %v allocs, want 0", n)
	}
	d.Origin = netip.MustParseAddr("2001:db8::1")
	if n := testing.AllocsPerRun(100, func() { _ = d.SDPLen() }); n != 0 {
		t.Errorf("SDPLen: %v allocs, want 0", n)
	}
}

// parseSeeds are the spellings the in-place parser must judge as the
// reference does: the benchmark's three body shapes, every rejected input
// of TestParseSDPErrors, and the corners of field splitting, number and
// address reading and line ends.
func parseSeeds(t testing.TB) [][]byte {
	small := &Description{ID: 17, Version: 1, Origin: netip.MustParseAddr("10.9.0.4"), Name: "small",
		Group: netip.MustParseAddr("224.2.130.7"), TTL: 15,
		Media: []Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}}}
	medium := mediumDesc()
	large := mediumDesc()
	large.Info = strings.Repeat("a longer description of the session. ", 6)
	for i, typ := range []string{"whiteboard", "text", "application"} {
		large.Media = append(large.Media, Media{Type: typ, Port: uint16(20004 + 2*i), Proto: "udp", Format: "wb",
			Attributes: []string{"orient:portrait", "recvonly"}})
	}
	var seeds [][]byte
	for _, d := range []*Description{small, medium, large, sampleDesc()} {
		data, err := d.MarshalSDP()
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	base := string(seeds[3])
	for _, s := range []string{
		"", "not sdp at all",
		strings.Replace(base, "v=0", "v=1", 1),
		strings.Replace(base, "o=", "x=", 1),
		strings.Replace(base, "IN IP4 10.1.2.3", "IN IP4 bogus", 1),
		strings.Replace(base, "c=IN IP4", "c=IN IP6", 1),
		strings.Replace(base, "/127", "/999", 1),
		strings.Replace(base, "m=audio 20000", "m=audio 99999999", 1),
		strings.Replace(base, "s=", "q=", 1),
		// Field splitting: tabs, runs of spaces, U+0085 and U+00A0, a
		// stray byte that is not UTF-8, a CR inside a line.
		"v=0\no=-\t1  2 IN\u0085IP4\u00a010.0.0.1\ns=x\nc=IN \tIP4  224.1.2.3/15\nt=0\t 0\nm=audio\u2003 9  RTP/AVP 0\t8   96\n",
		"v=0\no=u\xff 1 2 IN IP4 10.0.0.1\ns=\xffname\nc=IN IP4 224.1.2.3/15\nt=0 0\nm=a\xc3 9 p\x85q f\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\rs=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		// Addresses netip reads and the dotted-quad reader must not:
		// IPv6 forms, a zone, leading zeros, short and long quads.
		"v=0\no=- 1 2 IN IP4 ::1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 ::ffff:10.1.2.3\ns=x\nc=IN IP4 224.1.2.3\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 fe80::1%eth0\ns=x\nc=IN IP4 ff02::1/3\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.01\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0\ns=x\nc=IN IP4 224.1.2.3.4/15\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 256.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 0.0.0.0\ns=x\nc=IN IP4 239.255.255.255/255\nt=0 0\n",
		// Numbers: signs, leading zeros, the widest uint64 and one past
		// it, TTLs with and without the slash, a second slash.
		"v=0\no=- +1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=- 007 18446744073709551615 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/015\nt=00 0000000000000000000000\n",
		"v=0\no=- 1 18446744073709551616 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/1/5\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nb=AS:+5\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nb=AS:-0\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nb=AS:-1\nb=CT:x\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nb=AS:9223372036854775808\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=3900000000 3800000000\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\nm=audio 0 RTP/AVP 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\nm=audio 9 RTP/AVP\n",
		// Line ends and repeats: bare LF, CR only, CRCRLF, blank lines, a
		// line without '=', and repeated o= s= c= lines (the last wins,
		// but a TTL outlives a c= line that has none).
		"v=0\ro=- 1 2 IN IP4 10.0.0.1\rs=x\rc=IN IP4 224.1.2.3/15\rt=0 0\r",
		"v=0\r\r\n\n\r\no=- 1 2 IN IP4 10.0.0.1\r\r\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\nz\n",
		"v=0\no=a 1 2 IN IP4 10.0.0.1\no=bb 3 4 IN IP4 10.0.0.2\ns=first\ns=second\ni=one\ni=\nc=IN IP4 224.1.2.3/15\nc=IN IP4 224.1.2.4\nt=0 0\na=s1\na=\nm=audio 1 p f\na=m1\nm=video 2 q g h\nm=text 3 r i\na=m3a\na=m3b\n",
		// The o= line as the key peek sees it: first in the payload, five
		// fields then a line end, bytes past ASCII before and after the
		// address, a NUL inside a field, a seventh field.
		"o=- 1 2 IN IP4 10.0.0.1\r\nv=0\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4\n10.0.0.1 x\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1 tail\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=- 1 2 IN IP4 10.0.0.1\xff\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
		"v=0\no=\x00 1\x00 2 IN IP4 10.0.0.1 \xff extra\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// mediumDesc has the shape of the benchmark's medium body (benchmark/gen.go:
// ~400 bytes, 120 of them the i= line, two media, six attribute lines).
func mediumDesc() *Description {
	return &Description{
		ID: 3141592653, Version: 3, OriginUser: "bench", Origin: netip.MustParseAddr("10.1.2.3"),
		Name: "seminar on tools", Info: strings.Repeat("weekly multicast conferencing tools seminar ", 3)[:120],
		Group: netip.MustParseAddr("224.2.128.99"), TTL: 127, BandwidthKbps: 128,
		Start:      time.Date(1998, 9, 1, 14, 0, 0, 0, time.UTC),
		Stop:       time.Date(1998, 9, 2, 14, 0, 0, 0, time.UTC),
		Attributes: []string{"tool:sdr v2.4a6", "type:meeting", "recvonly"},
		Media: []Media{
			{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0", Attributes: []string{"ptime:40"}},
			{Type: "video", Port: 20002, Proto: "RTP/AVP", Format: "31", Attributes: []string{"framerate:15", "quality:8"}},
		},
	}
}

// checkParseMatchesReference: the same verdict, the same error text, and
// on acceptance the same Description field for field.
func checkParseMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := refParseSDP(data)
	got, err := ParseSDP(data)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ParseSDP(%q) error %v, reference %v", data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSDP(%q) differs from the reference:\n%+v\n%+v", data, got, want)
	}
	var wide [40]byte
	var narrow [12]byte
	for _, buf := range [][]byte{wide[:0], narrow[:0], narrow[:3]} {
		if got, want := PeekKey(buf, data), refPeekKey(buf, data); !bytes.Equal(got, want) {
			t.Fatalf("PeekKey(%q) into %d of %d = %q, reference %q", data, len(buf), cap(buf), got, want)
		}
	}
}

// refPeekKey is PeekKey as it was before it skipped the fields it does not
// keep: every line cut, all six fields split out.
func refPeekKey(dst, payload []byte) []byte {
	for rest := payload; len(rest) > 0; {
		var line []byte
		line, rest = cutLine(rest)
		if len(line) < 2 || line[0] != 'o' || line[1] != '=' {
			continue
		}
		var f [6][]byte
		if n, _ := fieldsAndRest(line[2:], f[:]); n == 6 && len(f[5])+1+len(f[1]) <= cap(dst)-len(dst) {
			dst = append(append(append(dst, f[5]...), '/'), f[1]...)
		}
		break
	}
	return dst
}

func TestParseSDPMatchesReferenceOnSeeds(t *testing.T) {
	accepted := 0
	for _, data := range parseSeeds(t) {
		checkParseMatchesReference(t, data)
		if _, err := ParseSDP(data); err == nil {
			accepted++
		}
	}
	if accepted < 12 {
		t.Fatalf("only %d seeds parse: the corners are not being reached", accepted)
	}
}

func FuzzParseSDPMatchesReference(f *testing.F) {
	for _, data := range parseSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkParseMatchesReference(t, data) })
}

// TestParseSDPAllocations pins what a parse may allocate: the Description,
// one backing string for all its text, one []string for every attribute
// line, one []Media.
func TestParseSDPAllocations(t *testing.T) {
	data, err := mediumDesc().MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseSDP(data); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("ParseSDP of the %d-byte medium body: %v allocs, want <= 4", len(data), n)
	}
}

// TestParseSDPRetainsNothing: data may be a datagram on loan, so the
// result must not change when the buffer is rewritten — and attribute
// lists that share an array must not grow into each other.
func TestParseSDPRetainsNothing(t *testing.T) {
	d := mediumDesc()
	data, err := d.MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	want, err := refParseSDP(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSDP(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = '#'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the Description changed with its input buffer:\n%+v\n%+v", got, want)
	}
	got.Attributes = append(got.Attributes, "extra:1")
	got.Media[0].Attributes = append(got.Media[0].Attributes, "extra:2")
	want.Attributes = append(want.Attributes, "extra:1")
	want.Media[0].Attributes = append(want.Media[0].Attributes, "extra:2")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appending to one attribute list reached another:\n%+v\n%+v", got, want)
	}
}

// TestPeekKey: the peek spells Key() for what MarshalSDP writes, and comes
// back empty-handed rather than growing its buffer.
func TestPeekKey(t *testing.T) {
	var buf [40]byte
	for _, d := range []*Description{sampleDesc(), mediumDesc(),
		{ID: ^uint64(0), Version: 1, Origin: netip.MustParseAddr("255.255.255.255"), Name: "widest",
			Group: netip.MustParseAddr("224.2.0.1"), TTL: 1}} {
		data, err := d.MarshalSDP()
		if err != nil {
			t.Fatal(err)
		}
		if got := string(PeekKey(buf[:0], data)); got != d.Key() {
			t.Errorf("PeekKey = %q, Key() = %q", got, d.Key())
		}
	}
	data, _ := mediumDesc().MarshalSDP()
	if n := testing.AllocsPerRun(100, func() { PeekKey(buf[:0], data) }); n != 0 {
		t.Errorf("PeekKey: %v allocs, want 0", n)
	}
	for _, c := range []struct{ payload, want string }{
		{"", ""},
		{"v=0\ns=no origin line\n", ""},
		{"v=0\no=- 1 2 IN IP4\n", ""},                   // five fields
		{"o=- 007 2 IN IP4 10.0.0.1\n", "10.0.0.1/007"}, // a hint, not an identity
		{"o=- 1 2 IN IP4 10.0.0.1\no=- 9 2 IN IP4 10.0.0.2\n", "10.0.0.1/1"}, // first line only
		{"o=- 1 2 IN IP4 " + strings.Repeat("1", 40) + "\n", ""},             // would outgrow the buffer
		{"o=- " + strconv.Itoa(1<<40) + " 2 IN IP4 fe80::1%eth0\n", "fe80::1%eth0/1099511627776"},
	} {
		if got := string(PeekKey(buf[:0], []byte(c.payload))); got != c.want {
			t.Errorf("PeekKey(%q) = %q, want %q", c.payload, got, c.want)
		}
	}
}

func BenchmarkParseSDP(b *testing.B) {
	data, _ := mediumDesc().MarshalSDP()
	b.Run("inplace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseSDP(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refParseSDP(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ScanSDP(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
