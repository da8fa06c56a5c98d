package session

import (
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sessiondir/internal/mcast"
)

func sampleDesc() *Description {
	return &Description{
		ID:         12345,
		Version:    2,
		Origin:     netip.MustParseAddr("10.1.2.3"),
		OriginUser: "mjh",
		Name:       "Mbone Tools Seminar",
		Info:       "weekly seminar",
		Group:      netip.MustParseAddr("224.2.130.7"),
		TTL:        127,
		Start:      time.Date(1998, 9, 1, 14, 0, 0, 0, time.UTC),
		Stop:       time.Date(1998, 9, 1, 16, 0, 0, 0, time.UTC),
		Media: []Media{
			{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"},
			{Type: "video", Port: 20002, Proto: "RTP/AVP", Format: "31"},
		},
	}
}

func TestKeyStableAcrossAddressChange(t *testing.T) {
	d := sampleDesc()
	moved := d.WithGroup(netip.MustParseAddr("224.2.130.99"))
	if d.Key() != moved.Key() {
		t.Fatalf("key changed on address move: %s vs %s", d.Key(), moved.Key())
	}
	if moved.Version != d.Version+1 {
		t.Fatalf("version not bumped: %d", moved.Version)
	}
	if moved.Group == d.Group {
		t.Fatal("group unchanged")
	}
	// Deep copy of media.
	moved.Media[0].Port = 1
	if d.Media[0].Port == 1 {
		t.Fatal("WithGroup shares media slice")
	}
}

func TestValidate(t *testing.T) {
	if err := sampleDesc().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := sampleDesc()
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("empty name accepted")
	}
	bad = sampleDesc()
	bad.Group = netip.MustParseAddr("10.0.0.1")
	if bad.Validate() == nil {
		t.Fatal("unicast group accepted")
	}
	bad = sampleDesc()
	bad.Start, bad.Stop = bad.Stop, bad.Start
	if bad.Validate() == nil {
		t.Fatal("stop<start accepted")
	}
	bad = sampleDesc()
	bad.Media[0].Port = 0
	if bad.Validate() == nil {
		t.Fatal("zero media port accepted")
	}
	bad = sampleDesc()
	bad.Media[0].Type = ""
	if bad.Validate() == nil {
		t.Fatal("empty media type accepted")
	}
}

func TestSDPRoundTrip(t *testing.T) {
	d := sampleDesc()
	data, err := d.MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSDP(data)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, data)
	}
	if got.Key() != d.Key() || got.Version != d.Version || got.Name != d.Name ||
		got.Info != d.Info || got.Group != d.Group || got.TTL != d.TTL ||
		!got.Start.Equal(d.Start) || !got.Stop.Equal(d.Stop) ||
		got.OriginUser != d.OriginUser {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", d, got)
	}
	if len(got.Media) != 2 || !reflect.DeepEqual(got.Media, d.Media) {
		t.Fatalf("media mismatch: %+v", got.Media)
	}
}

func TestSDPAttributesAndBandwidth(t *testing.T) {
	d := sampleDesc()
	d.BandwidthKbps = 128
	d.Attributes = []string{"tool:sdr v2.4a6", "type:test"}
	d.Media[0].Attributes = []string{"ptime:40", "recvonly"}
	data, err := d.MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"b=AS:128", "a=tool:sdr v2.4a6", "a=ptime:40"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("marshalled SDP missing %q:\n%s", want, data)
		}
	}
	got, err := ParseSDP(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.BandwidthKbps != 128 {
		t.Fatalf("bandwidth = %d", got.BandwidthKbps)
	}
	if !reflect.DeepEqual(got.Attributes, d.Attributes) {
		t.Fatalf("session attributes = %v", got.Attributes)
	}
	if !reflect.DeepEqual(got.Media[0].Attributes, d.Media[0].Attributes) {
		t.Fatalf("media attributes = %v", got.Media[0].Attributes)
	}
	if len(got.Media[1].Attributes) != 0 {
		t.Fatalf("attributes leaked to second stream: %v", got.Media[1].Attributes)
	}
}

func TestSDPBadBandwidth(t *testing.T) {
	base := string(mustMarshal(t, sampleDesc()))
	in := strings.Replace(base, "t=", "b=AS:notanumber\r\nt=", 1)
	if _, err := ParseSDP([]byte(in)); err == nil {
		t.Fatal("bad bandwidth accepted")
	}
	// Non-AS modifiers are ignored, per SDP.
	in = strings.Replace(base, "t=", "b=CT:99\r\nt=", 1)
	got, err := ParseSDP([]byte(in))
	if err != nil || got.BandwidthKbps != 0 {
		t.Fatalf("CT modifier mishandled: %v %d", err, got.BandwidthKbps)
	}
}

func TestWithGroupDeepCopiesAttributes(t *testing.T) {
	d := sampleDesc()
	d.Attributes = []string{"tool:sdr"}
	d.Media[0].Attributes = []string{"recvonly"}
	moved := d.WithGroup(netip.MustParseAddr("224.2.130.99"))
	moved.Attributes[0] = "changed"
	moved.Media[0].Attributes[0] = "changed"
	if d.Attributes[0] != "tool:sdr" || d.Media[0].Attributes[0] != "recvonly" {
		t.Fatal("WithGroup shares attribute slices")
	}
}

func TestSDPUnboundedTimes(t *testing.T) {
	d := sampleDesc()
	d.Start, d.Stop = time.Time{}, time.Time{}
	data, err := d.MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "t=0 0") {
		t.Fatalf("unbounded times not zero: %s", data)
	}
	got, err := ParseSDP(data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start.IsZero() || !got.Stop.IsZero() {
		t.Fatalf("times not round-tripped as zero: %v %v", got.Start, got.Stop)
	}
}

func TestSDPInjectionSanitised(t *testing.T) {
	d := sampleDesc()
	d.Name = "evil\r\nc=IN IP4 224.9.9.9/255"
	data, err := d.MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSDP(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Group != d.Group {
		t.Fatalf("newline injection changed the group to %s", got.Group)
	}
}

func TestParseSDPErrors(t *testing.T) {
	base := string(mustMarshal(t, sampleDesc()))
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"garbage", "not sdp at all"},
		{"bad version", strings.Replace(base, "v=0", "v=1", 1)},
		{"missing origin", strings.Replace(base, "o=", "x=", 1)},
		{"bad origin addr", strings.Replace(base, "IN IP4 10.1.2.3", "IN IP4 bogus", 1)},
		{"bad connection", strings.Replace(base, "c=IN IP4", "c=IN IP6", 1)},
		{"bad ttl", strings.Replace(base, "/127", "/999", 1)},
		{"bad media port", strings.Replace(base, "m=audio 20000", "m=audio 99999999", 1)},
		{"missing name", strings.Replace(base, "s=", "q=", 1)},
	}
	for _, c := range cases {
		if _, err := ParseSDP([]byte(c.input)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func mustMarshal(t *testing.T, d *Description) []byte {
	t.Helper()
	data, err := d.MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSDPPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(id, ver uint32, name string, ttl uint8, port uint16) bool {
		if port == 0 {
			port = 1
		}
		d := &Description{
			ID:      uint64(id),
			Version: uint64(ver),
			Origin:  netip.MustParseAddr("192.168.0.1"),
			Name:    "s" + name, // never empty
			Group:   netip.MustParseAddr("239.255.0.1"),
			TTL:     mcast.TTL(ttl),
			Media:   []Media{{Type: "audio", Port: port, Proto: "RTP/AVP", Format: "0"}},
		}
		data, err := d.MarshalSDP()
		if err != nil {
			return false
		}
		got, err := ParseSDP(data)
		if err != nil {
			return false
		}
		return got.ID == d.ID && got.Version == d.Version && got.TTL == d.TTL &&
			got.Media[0].Port == port
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
