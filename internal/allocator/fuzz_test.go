package allocator

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// sliceOnly wraps an Allocator as a caller's counting wrapper does: by
// embedding it, which hides AllocateFrom.
type sliceOnly struct{ Allocator }

// FuzzAllocate holds every catalog algorithm, on any view, to the contract
// of the Allocator interface: AllocateBatch equals the serial oracle
// address for address and error for error (so a failing batch returns the
// addresses picked before the failure), addresses are inside the space,
// the caller's view comes back untouched, and — R aside — no address is
// visible in the view or handed out twice within the batch. The view is
// also filed in a State the long way round, interleaved with extra members
// (half of them at a view member's address) that are then removed again:
// AllocateFrom on it must equal AllocateBatch over the slice, and leave it
// equal to the view folded afresh. A State made for an allocator wrapped
// so that it reads only slices (sliceOnly) is filed the same way: it must
// list exactly the view's members, and AllocateFrom, handing the wrapper
// that list, must pick what AllocateBatch did.
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

		state, listed := NewState(fuzzSpace), StateFor(sliceOnly{a})
		var extras []SessionInfo
		for i, v := range view {
			if i%2 == 0 {
				x := SessionInfo{Addr: v.Addr, TTL: v.TTL + 1}
				if i%4 == 2 {
					x.Addr = mcast.Addr(i % fuzzSpace)
				}
				state.Add(x.Addr, x.TTL)
				listed.Add(x.Addr, x.TTL)
				extras = append(extras, x)
			}
			state.Add(v.Addr, v.TTL)
			listed.Add(v.Addr, v.TTL)
		}
		for _, x := range extras {
			state.Remove(x.Addr, x.TTL)
			listed.Remove(x.Addr, x.TTL)
		}
		fromList, listErr := AllocateFrom(sliceOnly{a}, listed, ttl, k, nil, stats.NewRNG(seed))
		if fmt.Sprint(listErr) != fmt.Sprint(gotErr) || fmt.Sprint(fromList) != fmt.Sprint(got) {
			t.Fatalf("%s: AllocateFrom over a listed State picked %v (error %v), AllocateBatch %v (error %v)", a.Name(), fromList, listErr, got, gotErr)
		}
		byMember := func(x, y SessionInfo) int {
			return cmp.Or(cmp.Compare(x.Addr, y.Addr), cmp.Compare(x.TTL, y.TTL))
		}
		if !slices.Equal(slices.SortedFunc(slices.Values(listed.list), byMember), slices.SortedFunc(slices.Values(view), byMember)) {
			t.Fatalf("%s: a listed State lists %v, not the view %v", a.Name(), listed.list, view)
		}
		fromState, stateErr := a.AllocateFrom(state, ttl, k, nil, stats.NewRNG(seed))
		if fmt.Sprint(stateErr) != fmt.Sprint(gotErr) || fmt.Sprint(fromState) != fmt.Sprint(got) {
			t.Fatalf("%s: AllocateFrom picked %v (error %v), AllocateBatch %v (error %v)", a.Name(), fromState, stateErr, got, gotErr)
		}
		if !state.equal(foldState(fuzzSpace, view)) {
			t.Fatalf("%s: AllocateFrom left the State %+v, not the view folded afresh", a.Name(), state)
		}
	})
}
