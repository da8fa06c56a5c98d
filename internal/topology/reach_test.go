package topology

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// TestNodeSetIntersectsMismatchedUniverses pins the documented truncation
// behaviour when two sets come from different node universes: comparison
// covers only the common word prefix, so members beyond the smaller
// universe can never intersect. Cross-graph comparisons are meaningless and
// unsupported; this test exists so any future change to that contract is a
// conscious one.
func TestNodeSetIntersectsMismatchedUniverses(t *testing.T) {
	small := NewNodeSet(10)  // 1 word
	large := NewNodeSet(200) // 4 words

	// Overlap within the common prefix is seen from both directions.
	small.Add(5)
	large.Add(5)
	if !small.Intersects(large) || !large.Intersects(small) {
		t.Fatal("common-prefix overlap not detected")
	}

	// Overlap only beyond the small universe is invisible: truncated.
	small2 := NewNodeSet(10)
	large2 := NewNodeSet(200)
	large2.Add(150)
	if small2.Intersects(large2) || large2.Intersects(small2) {
		t.Fatal("empty small set cannot intersect anything")
	}
	// Same member id in both, but 150 is unrepresentable in the small
	// universe — there is no "node 150" in a 10-node graph, so adding it
	// would panic; the truncation means large2's member 150 never matches.
	small2.Add(9)
	if small2.Intersects(large2) {
		t.Fatal("truncation must hide members beyond the common prefix")
	}

	// Symmetry: a first-word member intersects regardless of which set is
	// the receiver, even with unequal word counts.
	large2.Add(9)
	if !small2.Intersects(large2) || !large2.Intersects(small2) {
		t.Fatal("intersection in common prefix must be symmetric")
	}
}

// TestNodeSetAllAscendingWithoutAllocating: All yields the members in
// ascending order across word boundaries, stops when the loop breaks, and
// allocates nothing — des.Net walks it once per datagram.
func TestNodeSetAllAscendingWithoutAllocating(t *testing.T) {
	s := NewNodeSet(200)
	want := []NodeID{0, 5, 63, 64, 130, 199}
	for _, v := range []NodeID{199, 64, 0, 130, 5, 63} {
		s.Add(v)
	}
	var got []NodeID
	for v := range s.All() {
		got = append(got, v)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("All yielded %v, want %v", got, want)
	}
	var first []NodeID
	for v := range s.All() {
		if first = append(first, v); len(first) == 2 {
			break
		}
	}
	if !slices.Equal(first, want[:2]) {
		t.Fatalf("a loop broken after two members saw %v", first)
	}
	var sum NodeID
	if allocs := testing.AllocsPerRun(100, func() {
		for v := range s.All() {
			sum += v
		}
	}); allocs != 0 {
		t.Fatalf("All allocates %v times a walk", allocs)
	}
}

// TestReachCacheConcurrent exercises the sharded cache from many
// goroutines over overlapping (src, ttl) keys. Run under -race (the
// Makefile's race target does) this is the regression test for the
// parallel experiment engine sharing one cache across workers.
func TestReachCacheConcurrent(t *testing.T) {
	g, err := GenerateMbone(MboneConfig{Nodes: 200}, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewReachCache(g)
	ttls := []mcast.TTL{15, 47, 63, 127, 191}

	// Serial reference answers.
	ref := make(map[reachKey]int)
	refCache := NewReachCache(g)
	for src := 0; src < 50; src++ {
		for _, ttl := range ttls {
			ref[reachKey{NodeID(src), ttl}] = refCache.Reach(NodeID(src), ttl).Len()
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker walks the key space in a different order so
			// lookups and inserts interleave.
			for i := 0; i < 50*len(ttls); i++ {
				idx := (i*7 + w*13) % (50 * len(ttls))
				src := NodeID(idx / len(ttls))
				ttl := ttls[idx%len(ttls)]
				set := cache.Reach(src, ttl)
				if !set.Contains(src) {
					errs <- "source missing from its own reach set"
					return
				}
				if got := set.Len(); got != ref[reachKey{src, ttl}] {
					errs <- "concurrent reach set differs from serial reference"
					return
				}
				// Shared trees must also be stable under concurrent access.
				if tr := cache.Tree(src); tr.Root != src {
					errs <- "tree root mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// memberKey renders a set's members for comparing sets by content.
func memberKey(s *NodeSet) string { return fmt.Sprint(s.Members()) }

// TestReachCacheInterns: over every (node, DS4 TTL) key of an Mbone, two
// keys' sets have equal IDs exactly when they have equal members, equal
// IDs are one pointer, and the IDs are 1..Classes() with none skipped.
func TestReachCacheInterns(t *testing.T) {
	g, err := GenerateMbone(MboneConfig{Nodes: 400}, stats.NewRNG(1998))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewReachCache(g)
	idOf := map[string]int{}
	byID := map[int]*NodeSet{}
	keys := 0
	for node := 0; node < g.NumNodes(); node++ {
		for _, ttl := range mcast.DS4().Support() {
			s := cache.Reach(NodeID(node), ttl)
			keys++
			if id, seen := idOf[memberKey(s)]; seen && id != s.ID() {
				t.Fatalf("equal members under ids %d and %d", id, s.ID())
			}
			idOf[memberKey(s)] = s.ID()
			if prev, seen := byID[s.ID()]; seen && prev != s {
				t.Fatalf("id %d names two pointers", s.ID())
			}
			byID[s.ID()] = s
		}
	}
	if len(byID) != len(idOf) {
		t.Fatalf("%d ids for %d distinct member sets", len(byID), len(idOf))
	}
	for id := 1; id <= len(byID); id++ {
		if byID[id] == nil {
			t.Fatalf("id %d of %d never handed out", id, len(byID))
		}
	}
	if cache.Classes() != len(byID) {
		t.Fatalf("Classes() = %d, %d distinct sets", cache.Classes(), len(byID))
	}
	t.Logf("%d keys, %d distinct sets", keys, len(byID))
	if id := NewNodeSet(g.NumNodes()).ID(); id != 0 {
		t.Fatalf("a set no cache built has id %d", id)
	}
}

// TestReachCacheInternsUnderRace: 16 goroutines racing Reach over the same
// keys on a fresh cache end up holding one pointer per distinct set, and
// the cache numbers exactly that many classes. Run under -race.
func TestReachCacheInternsUnderRace(t *testing.T) {
	g, err := GenerateMbone(MboneConfig{Nodes: 150}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	ttls := mcast.DS4().Support()
	cache := NewReachCache(g)
	const workers = 16
	got := make([][]*NodeSet, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]*NodeSet, g.NumNodes()*len(ttls))
			for i := range got[w] {
				k := (i*11 + w*13) % len(got[w]) // each worker in its own order (11 ∤ 150·7)
				got[w][k] = cache.Reach(NodeID(k/len(ttls)), ttls[k%len(ttls)])
			}
		}()
	}
	wg.Wait()
	pointerOf := map[string]*NodeSet{}
	for k := range got[0] {
		for w := range workers {
			if got[w][k] != got[0][k] {
				t.Fatalf("key %d: worker %d holds a different pointer from worker 0", k, w)
			}
		}
		key := memberKey(got[0][k])
		if prev, seen := pointerOf[key]; seen && prev != got[0][k] {
			t.Fatalf("key %d: equal members published as two pointers", k)
		}
		pointerOf[key] = got[0][k]
	}
	if cache.Classes() != len(pointerOf) {
		t.Fatalf("Classes() = %d, %d distinct sets", cache.Classes(), len(pointerOf))
	}
}

// checkContaining fails the test unless, for every node v, Containing(v)
// lists exactly the ids in byID whose set holds v, ascending: the brute
// force, which has no duplicates.
func checkContaining(t *testing.T, g *Graph, cache *ReachCache, byID map[int]*NodeSet) {
	t.Helper()
	for v := range NodeID(g.NumNodes()) {
		var want []int32
		for id := 1; id <= len(byID); id++ {
			if byID[id].Contains(v) {
				want = append(want, int32(id))
			}
		}
		if got := cache.Containing(v); !slices.Equal(got, want) {
			t.Fatalf("Containing(%d) = %v, brute force %v", v, got, want)
		}
	}
}

// TestReachCacheContaining: after every (node, DS4 TTL) key of a 400-node
// Mbone is interned, each node's Containing list is the brute-force list
// of the classes holding it.
func TestReachCacheContaining(t *testing.T) {
	g, err := GenerateMbone(MboneConfig{Nodes: 400}, stats.NewRNG(1998))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewReachCache(g)
	byID := map[int]*NodeSet{}
	for node := range NodeID(g.NumNodes()) {
		for _, ttl := range mcast.DS4().Support() {
			s := cache.Reach(node, ttl)
			byID[s.ID()] = s
		}
	}
	checkContaining(t, g, cache, byID)
}

// TestReachCacheContainingUnderRace: 16 goroutines racing Reach and
// Containing on a fresh cache end with every node's list equal to the
// brute force, and the list each worker took of one node mid-race still
// reads as it did then, as a prefix of that node's final list. Run under
// -race.
func TestReachCacheContainingUnderRace(t *testing.T) {
	g, err := GenerateMbone(MboneConfig{Nodes: 150}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	ttls := mcast.DS4().Support()
	cache := NewReachCache(g)
	const workers = 16
	keys := g.NumNodes() * len(ttls)
	sets := make([][]*NodeSet, workers)
	mid := make([][]int32, workers)     // the slice Containing returned mid-race
	midCopy := make([][]int32, workers) // what it held then
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sets[w] = make([]*NodeSet, keys)
			for i := range keys {
				k := (i*11 + w*13) % keys // each worker in its own order (11 ∤ 150·7)
				sets[w][k] = cache.Reach(NodeID(k/len(ttls)), ttls[k%len(ttls)])
				cache.Containing(NodeID(k / len(ttls)))
				if i == keys/2 {
					mid[w] = cache.Containing(NodeID(w))
					midCopy[w] = slices.Clone(mid[w])
				}
			}
		}()
	}
	wg.Wait()
	byID := map[int]*NodeSet{}
	for _, ws := range sets {
		for _, s := range ws {
			byID[s.ID()] = s
		}
	}
	checkContaining(t, g, cache, byID)
	for w := range workers {
		if !slices.Equal(mid[w], midCopy[w]) {
			t.Fatalf("worker %d: node %d's list taken mid-race changed from %v to %v", w, w, midCopy[w], mid[w])
		}
		if final := cache.Containing(NodeID(w)); !slices.Equal(final[:len(mid[w])], mid[w]) {
			t.Fatalf("worker %d: node %d's list taken mid-race %v is not a prefix of its final %v", w, w, mid[w], final)
		}
	}
}

// TestReachCacheConcurrentLCA pins that lazily-built LCA tables on shared
// trees are goroutine-safe (sync.Once), since cached trees escape to the
// request–response simulations too.
func TestReachCacheConcurrentLCA(t *testing.T) {
	g, err := GenerateMbone(MboneConfig{Nodes: 150}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewReachCache(g)
	tree := cache.Tree(0)
	var wg sync.WaitGroup
	results := make([]NodeID, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = tree.LCA(NodeID(10), NodeID(120))
		}()
	}
	wg.Wait()
	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatalf("concurrent LCA answers diverge: %v", results)
		}
	}
}
