package allocator

import (
	"errors"
	"testing"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// fuzzSpace is small enough that a few hundred view bytes fill a band or
// the whole space.
const fuzzSpace = 192

// fuzzView reads a view two bytes a session: address, TTL. Address bytes
// past the space become addresses far outside it, which an allocator must
// ignore without indexing its bitset by them.
func fuzzView(raw []byte) []SessionInfo {
	view := make([]SessionInfo, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		addr := mcast.Addr(raw[i])
		if addr >= fuzzSpace {
			addr <<= 20
		}
		view = append(view, SessionInfo{Addr: addr, TTL: mcast.TTL(raw[i+1])})
	}
	return view
}

// FuzzAllocate holds every catalog algorithm, on any view, to the contract
// of the Allocator interface: AllocateBatch equals the serial oracle
// address for address and error for error (so a failing batch returns the
// addresses picked before the failure), addresses are inside the space,
// the caller's view comes back untouched, and — R aside — no address is
// visible in the view or handed out twice within the batch.
func FuzzAllocate(f *testing.F) {
	span := func(lo, hi int, ttl byte) []byte {
		var raw []byte
		for a := lo; a < hi; a++ {
			raw = append(raw, byte(a), ttl)
		}
		return raw
	}
	f.Add(uint8(3), span(137, 164, 127), uint8(127), uint8(4), uint64(1))   // IPR-7's TTL-127 band, full
	f.Add(uint8(1), span(0, fuzzSpace, 63), uint8(63), uint8(2), uint64(2)) // the whole space, full
	f.Add(uint8(8), span(0, fuzzSpace, 191), uint8(1), uint8(2), uint64(3))
	f.Add(uint8(4), []byte(nil), uint8(15), uint8(16), uint64(4))          // empty view
	f.Add(uint8(8), span(190, 256, 47), uint8(47), uint8(8), uint64(5))    // addresses outside the space
	f.Add(uint8(5), span(100, 190, 191), uint8(191), uint8(39), uint64(6)) // a crowded top band, growing as it is picked from

	f.Fuzz(func(t *testing.T, algorithm uint8, raw []byte, ttlRaw, kRaw uint8, seed uint64) {
		cat := Catalog(fuzzSpace)
		a := cat[int(algorithm)%len(cat)]
		ttl, k := mcast.TTL(ttlRaw), int(kRaw%40)
		view := fuzzView(raw)
		snapshot := append([]SessionInfo(nil), view...)

		want, wantErr := AllocateBatchSerial(a, view, ttl, k, nil, stats.NewRNG(seed))
		got, gotErr := a.AllocateBatch(view, ttl, k, nil, stats.NewRNG(seed))

		if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrSpaceFull) != errors.Is(wantErr, ErrSpaceFull) {
			t.Fatalf("%s: batch error %v, serial error %v", a.Name(), gotErr, wantErr)
		}
		if gotErr != nil && !errors.Is(gotErr, ErrSpaceFull) {
			t.Fatalf("%s: error %v is not ErrSpaceFull", a.Name(), gotErr)
		}
		if (gotErr == nil) != (len(got) == k) {
			t.Fatalf("%s: %d of %d addresses with error %v", a.Name(), len(got), k, gotErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: batch picked %v, serial %v", a.Name(), got, want)
		}
		inView := map[mcast.Addr]bool{}
		for i, s := range view {
			if s != snapshot[i] {
				t.Fatalf("%s modified visible[%d]: %+v -> %+v", a.Name(), i, snapshot[i], s)
			}
			inView[s.Addr] = true
		}
		for i, addr := range got {
			if addr != want[i] {
				t.Fatalf("%s: address %d is %d in the batch, %d serially", a.Name(), i, addr, want[i])
			}
			if uint32(addr) >= a.Size() {
				t.Fatalf("%s: address %d outside the space of %d", a.Name(), addr, a.Size())
			}
			if a.Name() == "R" {
				continue // uninformed by design
			}
			if inView[addr] {
				t.Fatalf("%s: address %d is visible in the view, or was already picked in this batch", a.Name(), addr)
			}
			inView[addr] = true
		}
	})
}
