package chaos

import (
	"fmt"
	"sort"
	"strings"
)

// The harness's queries: what the tests assert a run ended with.

// Alive reports whether the agent is running (i.e. not Killed, or
// Restarted since).
func (a *Agent) Alive() bool { return a.alive }

// CreateSessions makes each agent announce n sessions. The announcements
// are in flight when it returns and arrive, subject to whatever faults
// are already installed, once Run advances the clock past the path delay.
func (h *Harness) CreateSessions(n int) error {
	for _, a := range h.agents {
		for j := range n {
			if err := h.announce(a, fmt.Sprintf("chaos-%d-%d", a.Index, j)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Sent reports how many packets the adversary has transmitted.
func (a *Adversary) Sent() uint64 { return a.sent }

// Fingerprint summarises agent i's view of the world: one sorted
// "key addr" line per live session it knows. Two agents with equal
// fingerprints agree on the session set and every address.
func (h *Harness) Fingerprint(i int) string {
	descs := h.agents[i].Dir.Sessions()
	lines := make([]string, 0, len(descs))
	for _, d := range descs {
		lines = append(lines, d.Key()+" "+d.Group.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Converged reports whether every live agent holds the same fingerprint,
// returning that fingerprint and, on disagreement, the dissenting agents.
func (h *Harness) Converged() (fp string, ok bool, dissent []int) {
	first := -1
	for _, a := range h.agents {
		if !a.alive {
			continue
		}
		f := h.Fingerprint(a.Index)
		if first < 0 {
			first, fp, ok = a.Index, f, true
			continue
		}
		if f != fp {
			ok = false
			dissent = append(dissent, a.Index)
		}
	}
	return fp, ok, dissent
}

// AddressClashes returns every multicast address currently announced by
// more than one live agent's *own* sessions — the allocations the clash
// protocol exists to keep distinct. Empty means clash-free.
func (h *Harness) AddressClashes() []string {
	type owned struct{ addr, key string }
	var all []owned
	for _, a := range h.agents {
		if !a.alive {
			continue
		}
		for _, d := range a.Dir.OwnSessions() {
			all = append(all, owned{addr: d.Group.String(), key: d.Key()})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].addr != all[j].addr {
			return all[i].addr < all[j].addr
		}
		return all[i].key < all[j].key
	})
	var clashes []string
	for i := 1; i < len(all); i++ {
		if all[i].addr == all[i-1].addr && all[i].key != all[i-1].key {
			clashes = append(clashes, fmt.Sprintf("%s: %s vs %s", all[i].addr, all[i-1].key, all[i].key))
		}
	}
	return clashes
}

// TotalAddressChanges sums phase-2 clash moves across live agents — the
// quantity that must go quiet for clash correction to count as terminated.
func (h *Harness) TotalAddressChanges() uint64 {
	var n uint64
	for _, a := range h.agents {
		if a.alive {
			n += a.Dir.Metrics().ClashAddressChanges
		}
	}
	return n
}

// SessionCount returns how many sessions agent i currently knows.
func (h *Harness) SessionCount(i int) int { return len(h.agents[i].Dir.Sessions()) }

// Knows reports whether agent i currently caches a session with the given
// key.
func (h *Harness) Knows(i int, key string) bool {
	for _, d := range h.agents[i].Dir.Sessions() {
		if d.Key() == key {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (k AdversaryKind) String() string {
	switch k {
	case Flooder:
		return "flooder"
	case Poisoner:
		return "poisoner"
	case ClashForger:
		return "clash-forger"
	case Replayer:
		return "replayer"
	case DeleteForger:
		return "delete-forger"
	default:
		return "adversary-?"
	}
}
