package sessiondir

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// TestCachedSessionFootprint pins the heap a bare Directory retains per
// heard session: 10 000 sessions announced to it once each, in payloads of
// 122 and of 254 bytes, measured after a collection with the datagrams
// gone. A cached session is its entry (184 bytes: the summary, two times,
// key, payload, digest and the clash tracker's node), its key string and
// its payload as heard, plus the tracker's slot for its address and the
// cache's map slot: 407 and 535 bytes on linux/amd64 with Go 1.24. When
// the tracker kept a 48-byte record of its own per session in a map by
// key, they were 467 and 595; a cache that held a parsed description per
// session retained 612 and 851.
func TestCachedSessionFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const n = 10000
	for _, c := range []struct {
		payload int
		limit   float64 // bytes per session: what is measured, and 7 % more
	}{{122, 436}, {254, 573}} {
		t.Run(fmt.Sprintf("payload%d", c.payload), func(t *testing.T) {
			clk := newFakeClock()
			d, err := New(Config{Origin: netip.MustParseAddr("10.0.0.1"), Transport: &sentLog{}, Clock: clk.Now, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for from := 0; from < n; from += 100 {
				batch := make([]transport.Message, 100)
				for i := range batch {
					batch[i] = transport.Message{Data: announceWire(t, sizedDesc(t, from+i, c.payload))}
				}
				d.HandleBatch(batch)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			if got := d.CacheSize(); got != n {
				t.Fatalf("the cache holds %d sessions, want %d", got, n)
			}
			per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
			t.Logf("%d-byte payloads: %.0f bytes retained per cached session", c.payload, per)
			if per > c.limit {
				t.Fatalf("%d-byte payloads: %.0f bytes retained per cached session, limit %.0f", c.payload, per, c.limit)
			}
			runtime.KeepAlive(d)
		})
	}
}

// TestOwnedSessionFitsSizeClass pins an owned session's record: its
// description by value, the key, the schedule, the cached send state and
// the clash tracker's node, in the 320-byte size class.
func TestOwnedSessionFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(ownedSession{}); n > 320 {
		t.Fatalf("ownedSession is %d bytes, over the 320-byte size class", n)
	}
}

// sizedDesc is the i-th distinct foreign session (100 per origin, each at
// its own address of the SAP dynamic block) in one of two shapes padded to
// a size-byte payload: a name and an audio stream (122 bytes), or an
// announcement as sdr wrote them, with a user, free text, session
// attributes and an audio and a video stream with theirs (254 bytes).
func sizedDesc(t *testing.T, i, size int) *session.Description {
	t.Helper()
	d := &session.Description{
		ID: uint64(1 + i%100), Version: 1,
		Origin: netip.AddrFrom4([4]byte{10, 1, byte(i / 100 >> 8), byte(i / 100)}),
		Name:   "s", Group: mcast.SAPDynamicSpace().Group(mcast.Addr(i)), TTL: 127,
		Media: []session.Media{{Type: "audio", Port: 5004, Proto: "RTP/AVP", Format: "0"}},
	}
	pad := &d.Name
	if size > 200 {
		d.OriginUser, d.Info, pad = "mjh", "w", &d.Info
		d.Attributes = []string{"tool:sdr v2.4a6", "type:meeting"}
		d.Media[0].Attributes = []string{"ptime:40"}
		d.Media = append(d.Media, session.Media{Type: "video", Port: 5006, Proto: "RTP/AVP", Format: "31", Attributes: []string{"framerate:15"}})
	}
	payload, err := d.MarshalSDP()
	if err != nil || len(payload) > size {
		t.Fatalf("session %d: a %d-byte payload (%v) does not pad to %d", i, len(payload), err, size)
	}
	*pad += strings.Repeat("x", size-len(payload))
	return d
}
