package session

import (
	"bytes"
	"fmt"
	"net/netip"
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
		// Appending must leave what dst already holds alone, error or not.
		appended, _ := d.AppendSDP([]byte("prefix"))
		if !bytes.Equal(appended, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendSDP onto a prefix: %q", appended)
		}
	})
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
}
