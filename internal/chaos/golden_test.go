package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// The replay tests in this package compare a run with itself, so a change
// to the order in which fault draws are made moves both sides and passes.
// These digests pin the schedules themselves: the same seed must still
// produce the same caches, the same injected fates and the same directory
// counters. They were recorded once, when the harness moved onto des.Net
// (delivery gained a path delay and the fates one network-wide stream);
// until then they were the digests of the commit before internal/fault
// existed. The gauntlet's was recorded again when the per-origin rate
// check moved ahead of the SDP parse: its adversaries' unparseable
// payloads now spend their origin's tokens, and past the burst count as
// quota drops instead of malformed packets. It was recorded again when a
// directory stopped caching copies of the sessions it owns: the
// replayer's copies of each agent's own two sessions had been learned and
// later expired, so each agent's learned and expired counts fell by 2 and
// nothing else moved; the flagship digests did not change.

// runDigest hashes, per agent, the cache fingerprint, the receive-side
// fault counters and every directory counter. The recorded digests
// include a burst-loss counter the fault model no longer has; it read 0
// in every schedule, so it is hashed as the literal burst=0.
func runDigest(h *Harness) string {
	sum := sha256.New()
	for i, a := range h.agents {
		fmt.Fprintf(sum, "agent %d\n%s\n", i, h.Fingerprint(i))
		s := a.Endpoint.Stats()
		fmt.Fprintf(sum, "fault packets=%d dropped=%d burst=0 dup=%d corrupt=%d\n",
			s.Packets, s.Dropped, s.Duplicated, s.Corrupted)
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
		{"flagship", runFlagship, 1998, "fb2507a79d09b86d178e516f737e873c2e29a8f4579e98bb5ecbc9581c6d9cbe"},
		{"flagship", runFlagship, 42, "a9fbe83be3bda3877a99e22ba7d8c867d4d12a6769c6d9e38ab1d061e3d0e516"},
		{"gauntlet", runGauntlet, 4242, "1ffb0242a4d5b93ddc1adfc5ec5ae6c83f404a81ee7b2209c76434aaf75b0fc2"},
	}
	for _, c := range cases {
		if got := runDigest(c.run(t, c.seed)); got != c.want {
			t.Errorf("%s seed %d: digest %s, recorded %s — the seeded schedule moved",
				c.name, c.seed, got, c.want)
		}
	}
}
