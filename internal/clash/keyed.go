package clash

import "sessiondir/internal/mcast"

// keyedNode is the node the keyed calls keep for one key, with the key
// it is bound to.
type keyedNode struct {
	node Node
	key  string
}

// AnnounceOwn records that this site announced its own session. Call it
// for the first announcement and for address changes.
func (t *Tracker) AnnounceOwn(key SessionKey, addr mcast.Addr, _ mcast.TTL, at float64) { //mclint:unused pinned by benchmark/shadow.go
	t.AnnounceNode(t.nodeFor(key), addr, at)
}

// Forget drops a session (deleted or expired) from the cache.
func (t *Tracker) Forget(key SessionKey) { //mclint:unused pinned by benchmark/shadow.go
	if k, ok := t.keyed[key]; ok {
		t.ForgetNode(&k.node)
		delete(t.keyed, key)
	}
}

// Observe processes a received announcement and returns any immediate
// actions (phase 1 and 2). Phase-3 defenses are scheduled internally and
// surface later through Due.
func (t *Tracker) Observe(obs Observation) []Action {
	return t.ObserveNode(t.nodeFor(obs.Key), obs.Addr, obs.At)
}

// nodeFor is key's node, made on first use (newNode).
func (t *Tracker) nodeFor(key SessionKey) *Node {
	if k, ok := t.keyed[key]; ok {
		return &k.node
	}
	return t.newNode(key)
}

func (t *Tracker) newNode(key SessionKey) *Node {
	k := &keyedNode{key: string(key)}
	k.node.Bind(&k.key)
	t.keyed[key] = k
	return &k.node
}
