package mcast

import (
	"net/netip"
	"testing"
	"testing/quick"

	"sessiondir/internal/stats"
)

func TestSAPDynamicSpace(t *testing.T) {
	s := SAPDynamicSpace()
	if got := s.Group(0).String(); got != "224.2.128.0" {
		t.Fatalf("first = %s", got)
	}
	if got := s.Group(Addr(s.Size - 1)).String(); got != "224.2.255.255" {
		t.Fatalf("last = %s", got)
	}
	if s.Size != 32768 {
		t.Fatalf("size = %d", s.Size)
	}
}

func TestGroupIndexRoundTrip(t *testing.T) {
	spaces := []AddrSpace{SAPDynamicSpace(), AdminScopedSpace(0), SyntheticSpace(1000)}
	for _, s := range spaces {
		err := quick.Check(func(raw uint32) bool {
			idx := Addr(raw % s.Size)
			back, ok := s.Index(s.Group(idx))
			return ok && back == idx
		}, nil)
		if err != nil {
			t.Fatalf("space %s: %v", s, err)
		}
	}
}

func TestIndexRejectsOutside(t *testing.T) {
	s := SyntheticSpace(10)
	if _, ok := s.Index(netip.AddrFrom4([4]byte{224, 0, 0, 1})); ok {
		t.Fatal("address below base accepted")
	}
	if _, ok := s.Index(netip.AddrFrom4([4]byte{232, 1, 0, 10})); ok {
		t.Fatal("address one past end accepted")
	}
	if _, ok := s.Index(netip.MustParseAddr("ff02::1")); ok {
		t.Fatal("IPv6 accepted")
	}
}

func TestGroupPanicsOutsideSpace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SyntheticSpace(5).Group(5)
}

func TestGroupCarriesAcrossOctets(t *testing.T) {
	s := AddrSpace{Base: netip.AddrFrom4([4]byte{224, 2, 128, 250}), Size: 20}
	if got := s.Group(10).String(); got != "224.2.129.4" {
		t.Fatalf("carry = %s", got)
	}
}

func TestIsMulticast(t *testing.T) {
	cases := map[string]bool{
		"224.0.0.1":   true,
		"239.255.1.2": true,
		"223.255.0.1": false,
		"240.0.0.1":   false,
		"10.1.2.3":    false,
	}
	for a, want := range cases {
		if got := IsMulticast(netip.MustParseAddr(a)); got != want {
			t.Errorf("IsMulticast(%s) = %v", a, got)
		}
	}
}

func TestScopeNames(t *testing.T) {
	cases := map[TTL]string{
		0:   "host",
		1:   "subnet",
		15:  "site",
		31:  "region",
		47:  "national",
		63:  "continental",
		127: "intercontinental",
		191: "unrestricted",
		255: "unrestricted",
	}
	for ttl, want := range cases {
		if got := ScopeName(ttl); got != want {
			t.Errorf("ScopeName(%d) = %q want %q", ttl, got, want)
		}
	}
}

func TestDistributionsMatchPaper(t *testing.T) {
	// §2.2 lists the four distributions explicitly; check lengths and
	// support sets.
	if got := len(DS1().Values); got != 7 {
		t.Fatalf("ds1 size %d", got)
	}
	if got := len(DS2().Values); got != 9 {
		t.Fatalf("ds2 size %d", got)
	}
	if got := len(DS3().Values); got != 13 {
		t.Fatalf("ds3 size %d", got)
	}
	if got := len(DS4().Values); got != 22 {
		t.Fatalf("ds4 size %d", got)
	}
	for _, d := range Distributions() {
		sup := d.Support()
		for i := 1; i < len(sup); i++ {
			if sup[i] <= sup[i-1] {
				t.Fatalf("%s support not strictly ascending: %v", d.Name, sup)
			}
		}
		// All distributions share the same support {1,15,31,47,63,127,191}.
		want := []TTL{1, 15, 31, 47, 63, 127, 191}
		if len(sup) != len(want) {
			t.Fatalf("%s support %v", d.Name, sup)
		}
		for i := range want {
			if sup[i] != want[i] {
				t.Fatalf("%s support %v", d.Name, sup)
			}
		}
	}
}

func TestDistributionSampleFrequencies(t *testing.T) {
	g := stats.NewRNG(21)
	d := DS4()
	counts := map[TTL]int{}
	const n = 220000
	for i := 0; i < n; i++ {
		counts[d.Sample(g.IntN)]++
	}
	// ds4 has 22 entries; TTL 1 appears 8 times → expect 8/22.
	got := float64(counts[1]) / n
	want := 8.0 / 22.0
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("TTL1 frequency %v want ~%v", got, want)
	}
	// TTL 191 appears once → 1/22.
	got = float64(counts[191]) / n
	want = 1.0 / 22.0
	if got < want-0.01 || got > want+0.01 {
		t.Fatalf("TTL191 frequency %v want ~%v", got, want)
	}
}

func TestSampleEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(TTLDistribution{}).Sample(func(int) int { return 0 })
}
