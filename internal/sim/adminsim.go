package sim

import (
	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// This file simulates allocation under *administrative* scoping (§1): a
// session is scoped to the admin zone of its originator; announcements
// reach exactly the zone; the same address may be in use in any number of
// zones simultaneously without clashing. The point, which
// TestAdminScopingMakesIREasy and the adminscope experiment demonstrate,
// is the paper's remark that "the simpler solutions work well for
// administrative scope zone address allocation" — symmetric visibility
// turns informed-random into a perfect allocator.

// AdminFillResult is the outcome of an admin-scoped fill run.
type AdminFillResult struct {
	Allocations int
	Clashes     int
	ZonesFull   int
}

// FillAdminZones allocates sessions with admin scoping until every zone's
// space is exhausted or maxSessions is reached, counting clashes. The
// allocator sees the zone-local view (perfect, by admin-scope symmetry).
func FillAdminZones(zones []*topology.AdminZone, alloc func() allocator.StateAllocator, maxSessions int, rng *stats.RNG) AdminFillResult {
	type zoneState struct {
		alloc allocator.StateAllocator
		state *allocator.State // the zone's sessions
		full  bool
	}
	states := make([]*zoneState, len(zones))
	for i := range zones {
		a := alloc()
		states[i] = &zoneState{alloc: a, state: allocator.NewState(a.Size())}
	}
	var res AdminFillResult
	var pick [1]mcast.Addr
	live := len(zones)
	for res.Allocations < maxSessions && live > 0 {
		zi := rng.IntN(len(zones))
		st := states[zi]
		if st.full {
			continue
		}
		// Admin-scoped sessions use the zone-relative TTL convention of a
		// fixed in-zone scope; TTL plays no partitioning role here.
		got, err := st.alloc.AllocateFrom(st.state, 255, 1, pick[:0], rng)
		if err != nil {
			st.full = true
			live--
			res.ZonesFull++
			continue
		}
		if st.state.Has(got[0]) {
			res.Clashes++
		}
		st.state.Add(got[0], 255)
		res.Allocations++
	}
	return res
}
