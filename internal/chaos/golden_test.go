package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// The replay tests in this package compare a run with itself, so a change
// to the order in which fault draws are made moves both sides and passes.
// These digests were recorded at the commit before internal/fault existed
// (PR 18) and pin the schedules themselves: the same seed must still
// produce the same caches, the same injected fates and the same directory
// counters.

// faultCounters is the receive-side fault accounting of one agent, by
// field so the digest survives a reshaping of the stats struct (it was
// Stats().Ingress when the digests were recorded).
func faultCounters(a *Agent) (packets, dropped, burst, dup, corrupt, delayed uint64, pending int) {
	s := a.Fault.Stats()
	return s.Packets, s.Dropped, s.BurstDropped, s.Duplicated, s.Corrupted, s.Delayed, s.Pending
}

// runDigest hashes, per agent, the cache fingerprint, the receive-side
// fault counters, the delay queue depth and every directory counter.
func runDigest(h *Harness) string {
	sum := sha256.New()
	for i, a := range h.agents {
		fmt.Fprintf(sum, "agent %d\n%s\n", i, h.Fingerprint(i))
		packets, dropped, burst, dup, corrupt, delayed, pending := faultCounters(a)
		fmt.Fprintf(sum, "fault packets=%d dropped=%d burst=%d dup=%d corrupt=%d delayed=%d pending=%d\n",
			packets, dropped, burst, dup, corrupt, delayed, pending)
		m := a.Dir.Metrics()
		fmt.Fprintf(sum, "dir ann=%d del=%d recv=%d malformed=%d learned=%d expired=%d moves=%d own=%d third=%d",
			m.AnnouncementsSent, m.DeletionsSent, m.PacketsReceived, m.PacketsMalformed,
			m.SessionsLearned, m.SessionsExpired, m.ClashAddressChanges, m.ClashDefensesOwn, m.ClashDefensesThird)
		fmt.Fprintf(sum, " shed=%d quota=%d freports=%d fdeletes=%d evict=%d ddef=%d dlearn=%d\n",
			m.Shed, m.QuotaDrops, m.ForgedReports, m.ForgedDeletes, m.Evictions, m.DegradedDefenses, m.DegradedLearns)
	}
	for i, adv := range h.advs {
		fmt.Fprintf(sum, "adversary %d sent=%d\n", i, adv.Sent())
	}
	return hex.EncodeToString(sum.Sum(nil))
}

func TestChaosGoldenSchedules(t *testing.T) {
	cases := []struct {
		name string
		run  func(*testing.T, uint64) *Harness
		seed uint64
		want string
	}{
		{"flagship", runFlagship, 1998, "cbfe64d190ab429b75ccfda90c63c498e51d2d3dc9f90d985c353f6b00dcb4bf"},
		{"flagship", runFlagship, 42, "d38e43def332a3bf8bd0b4924abe2319c55958ab4f29ef383d9796d0742a7d41"},
		{"gauntlet", runGauntlet, 4242, "da7eeb2c2d79378e182e1d149d039a492d12c7ccf4339c47f489483e3b227664"},
	}
	for _, c := range cases {
		if got := runDigest(c.run(t, c.seed)); got != c.want {
			t.Errorf("%s seed %d: digest %s, recorded %s — the seeded schedule moved",
				c.name, c.seed, got, c.want)
		}
	}
}
