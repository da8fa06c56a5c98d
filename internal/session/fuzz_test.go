package session

import (
	"strings"
	"testing"
)

func FuzzParseSDP(f *testing.F) {
	valid, _ := sampleDesc().MarshalSDP()
	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("v=0\no=- 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n"))
	f.Add([]byte("v=0\r\nb=AS:12\r\na=tool:x\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ParseSDP(data) // must not panic
		if err != nil {
			return
		}
		// Anything that parses must validate and re-marshal.
		if err := d.Validate(); err != nil {
			t.Fatalf("parsed description fails validation: %v", err)
		}
		out, err := d.MarshalSDP()
		if err != nil {
			t.Fatalf("parsed description fails to marshal: %v", err)
		}
		// And the re-marshalled form must parse to the same identity.
		d2, err := ParseSDP(out)
		if err != nil {
			t.Fatalf("re-marshalled SDP fails to parse: %v\n%s", err, out)
		}
		if d2.Key() != d.Key() || d2.Version != d.Version || d2.Group != d.Group {
			t.Fatalf("identity drifted: %s/%d vs %s/%d", d.Key(), d.Version, d2.Key(), d2.Version)
		}
	})
}

// checkScanMatchesParse: ScanSDP gives ParseSDP's verdict and error text,
// and on acceptance the parsed description's summary and key.
func checkScanMatchesParse(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := ParseSDP(data)
	got, err := ScanSDP(data)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ScanSDP(%q) error %v, ParseSDP's %v", data, err, wantErr)
	}
	if err != nil {
		return
	}
	if got != want.Summary() || got.Key() != want.Key() {
		t.Fatalf("ScanSDP(%q) = %+v (key %s), ParseSDP read %+v (key %s)", data, got, got.Key(), want.Summary(), want.Key())
	}
}

// scanSeeds are parseSeeds plus a payload failing each of Validate's
// checks after a clean scan.
func scanSeeds(t testing.TB) [][]byte {
	const body = "v=0\no=- 1 2 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.1.2.3/15\nt=0 0\n"
	seeds := parseSeeds(t)
	for _, s := range []string{
		body,
		strings.Replace(body, "s=x", "s=", 1),
		strings.Replace(body, "224.1.2.3", "10.1.2.3", 1),
		strings.Replace(body, "t=0 0", "t=3900000000 3800000000", 1),
		body + "m=audio 0 RTP/AVP 0\nm=video 0 RTP/AVP 31\n",
		body + "m=audio 9 RTP/AVP 0\nm=video 0 RTP/AVP 31\n",
		strings.Replace(body, "s=x", "s=", 1) + "m=audio 0 RTP/AVP 0\n",
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func TestScanSDPMatchesParseOnSeeds(t *testing.T) {
	for _, data := range scanSeeds(t) {
		checkScanMatchesParse(t, data)
	}
}

func FuzzScanSDPMatchesParse(f *testing.F) {
	for _, data := range scanSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(checkScanMatchesParse)
}

// TestScanSDPAllocatesNothing: the scan a listener makes of every payload
// it learns copies nothing out of it.
func TestScanSDPAllocatesNothing(t *testing.T) {
	data, err := mediumDesc().MarshalSDP()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ScanSDP(data); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ScanSDP: %v allocs, want 0", n)
	}
}
