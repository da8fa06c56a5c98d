package clash

import (
	"fmt"
	"reflect"
	"testing"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// nodeHarness drives the node calls the way a directory does: each key has
// a cache entry's node and an owned session's node, and the key's node is
// the owned one while the key is owned. Owning a heard key forgets the
// entry's node, a withdrawal forgets the owned node and ends the
// ownership, and an expiry forgets a heard key's node and nothing of an
// owned one (its echo's node is unlinked).
type nodeHarness struct {
	keys        []string
	entry, mine []*Node
	owned       []bool
}

func newNodeHarness(keys []SessionKey) *nodeHarness {
	h := &nodeHarness{entry: make([]*Node, len(keys)), mine: make([]*Node, len(keys)), owned: make([]bool, len(keys))}
	for _, k := range keys {
		h.keys = append(h.keys, string(k))
	}
	for i := range keys {
		h.entry[i], h.mine[i] = new(Node), new(Node)
		h.entry[i].Bind(&h.keys[i])
		h.mine[i].Bind(&h.keys[i])
	}
	return h
}

// node is key i's node.
func (h *nodeHarness) node(i int) *Node {
	if h.owned[i] {
		return h.mine[i]
	}
	return h.entry[i]
}

// FuzzTrackerMatchesReference decodes one op stream from the fuzz input —
// observations, own announcements (some taking a heard key over),
// withdrawals, expiries and Due calls over six keys crowded onto three
// addresses, the clock stepping inside and past RecentWindow — and drives
// it through the node calls (as a directory makes them), the keyed calls
// and the full-scan reference. After every op the three must have returned
// the same actions and hold the same pending-defence count and RNG
// position, the node tracker must link exactly the nodes of the keys the
// keyed one holds, at the same addresses, and both must pass checkIndex.
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 6, 5, 13, 0, 200})
	// A heard key is taken over, clashed with and withdrawn; another
	// owned key is announced again, its echo expires, and it is heard
	// again.
	f.Add([]byte{0, 1, 1, 1, 7, 2, 7, 1, 3, 0, 13, 50, 9, 7, 1, 1, 1, 10, 12, 7, 0, 0, 7, 60, 10, 1, 1, 14, 0, 250})
	seq := stats.NewRNG(0xc1a54)
	long := make([]byte, 3*1500)
	for i := range long {
		long[i] = byte(seq.IntN(256))
	}
	f.Add(long)

	cfg := TrackerConfig{RecentWindow: 1000, Delay: NewExponentialDelay(0, 3200, 200)}
	sameActions := func(a, b []Action) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := make([]SessionKey, 6)
		for i := range keys {
			keys[i] = SessionKey(fmt.Sprintf("10.0.0.%d/%d", i%4, i))
		}
		keyed := NewTracker(cfg, stats.NewRNG(1))
		nodes := NewTracker(cfg, stats.NewRNG(1))
		ref := &refTracker{cfg: cfg, rng: stats.NewRNG(1), cache: map[SessionKey]*refEntry{}, defenses: map[defensePair]int{}}
		h := newNodeHarness(keys)
		at := 0.0
		for i := 0; i+2 < len(data); i += 3 {
			op, a := data[i], data[i+1]
			at += float64(data[i+2]) * 20
			k := int(a) % len(keys)
			key, addr := keys[k], mcast.Addr(a/8%3)
			var got, viaNodes, want []Action
			switch op % 16 {
			case 0, 1, 2, 3, 4, 5, 6:
				got = keyed.Observe(Observation{Key: key, Addr: addr, TTL: 127, At: at})
				viaNodes = nodes.ObserveNode(h.node(k), addr, at)
				want = ref.Observe(Observation{Key: key, Addr: addr, TTL: 127, At: at})
			case 7, 8, 9:
				if !h.owned[k] {
					// Taking a heard key over forgets what was heard of it.
					keyed.Forget(key)
					nodes.ForgetNode(h.entry[k])
					ref.Forget(key)
					h.owned[k] = true
				}
				keyed.AnnounceOwn(key, addr, 127, at)
				nodes.AnnounceNode(h.mine[k], addr, at)
				ref.AnnounceOwn(key, addr, at)
			case 10, 11:
				keyed.Forget(key)
				nodes.ForgetNode(h.node(k))
				h.owned[k] = false
				ref.Forget(key)
			case 12:
				if !h.owned[k] {
					keyed.Forget(key)
					nodes.ForgetNode(h.entry[k])
					ref.Forget(key)
				}
			default:
				got, viaNodes, want = keyed.Due(at), nodes.Due(at), ref.Due(at)
			}
			if !sameActions(got, want) || !sameActions(viaNodes, want) {
				t.Fatalf("op %d: keyed calls %v, node calls %v, reference %v", i/3, got, viaNodes, want)
			}
			refPending := 0
			for _, p := range ref.pending {
				if !p.done {
					refPending++
				}
			}
			if keyed.PendingDefenses() != refPending || nodes.PendingDefenses() != refPending {
				t.Fatalf("op %d: %d and %d pending defences, reference %d", i/3, keyed.PendingDefenses(), nodes.PendingDefenses(), refPending)
			}
			if a, b, c := keyed.rng.Uint64(), nodes.rng.Uint64(), ref.rng.Uint64(); a != c || b != c {
				t.Fatalf("op %d: RNG streams diverged", i/3)
			}
			var linked []*Node
			for j, key := range keys {
				addr, ok := cachedAddr(keyed, key)
				if n := h.node(j); n.linked != ok || ok && n.addr != addr {
					t.Fatalf("op %d: %s's node linked %v at %d, keyed node %v at %d", i/3, key, n.linked, n.addr, ok, addr)
				}
				if ok {
					linked = append(linked, h.node(j))
				}
			}
			checkIndex(t, keyed, keyedNodes(keyed))
			checkIndex(t, nodes, linked)
		}
	})
}
