package des

import (
	"bytes"
	"context"
	"math"
	"math/bits"
	"testing"
	"time"

	"sessiondir/internal/fault"
	"sessiondir/internal/topology"
	"sessiondir/internal/transport"
)

// The fabric's fault behaviour, stated on the fabric: what each part of a
// fault.Profile does to packets crossing a Net.

// heard logs what a receiver was delivered — in copies, since Data is only
// on loan for the handler call.
type heard struct{ msgs [][]byte }

func (h *heard) add(ms []transport.Message) {
	for _, m := range ms {
		h.msgs = append(h.msgs, bytes.Clone(m.Data))
	}
}

// faultPair attaches a sender at node 0 and a receiver at node 1 of a
// two-node line under profile, returning both and the log of what the
// receiver heard.
func faultPair(t *testing.T, seed uint64, profile fault.Profile) (*Engine, *Net, *Endpoint, *Endpoint, *heard) {
	t.Helper()
	e := NewEngine(simStart())
	net, err := NewNet(e, NetConfig{Graph: lineTopo(t, 2), Profile: profile, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	send, err := net.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := net.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	got := &heard{}
	recv.Subscribe(got.add)
	return e, net, send, recv, got
}

func sendN(t *testing.T, ep *Endpoint, n int, data []byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := ep.SendBatch(context.Background(), oneDgram(data, 10)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewNetRejectsInvalidProfiles: the whole profile is validated — NaN
// (which would silently disarm the fault it configures) included — at
// construction and at SetProfile.
func TestNewNetRejectsInvalidProfiles(t *testing.T) {
	e := NewEngine(simStart())
	g := lineTopo(t, 2)
	net, err := NewNet(e, NetConfig{Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []fault.Profile{
		{Loss: 1.5},
		{Loss: -0.1},
		{Loss: math.NaN()},
		{Duplicate: math.Inf(1)},
		{Corrupt: math.NaN()},
		{DelayMin: time.Second, DelayMax: time.Millisecond},
		{DelayMin: -time.Second},
	} {
		if _, err := NewNet(e, NetConfig{Graph: g, Profile: p}); err == nil {
			t.Errorf("NewNet accepted %+v", p)
		}
		if err := net.SetProfile(p); err == nil {
			t.Errorf("SetProfile accepted %+v", p)
		}
	}
	// Total loss is a valid profile: schedules use it to silence a fabric.
	if _, err := NewNet(e, NetConfig{Graph: g, Profile: fault.Profile{Loss: 1}}); err != nil {
		t.Fatalf("Loss=1 rejected: %v", err)
	}
}

func TestNetZeroProfilePassesThrough(t *testing.T) {
	e, _, send, recv, got := faultPair(t, 1, fault.Profile{})
	sendN(t, send, 50, []byte("packet"))
	e.RunFor(time.Second)
	if len(got.msgs) != 50 {
		t.Fatalf("delivered %d of 50 with zero profile", len(got.msgs))
	}
	if st := recv.Stats(); st.Dropped != 0 || st.Packets != 50 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestNetTotalLossAndStats also pins that a packet's fate is decided per
// receiver: the sender's own process is offered nothing.
func TestNetTotalLossAndStats(t *testing.T) {
	e, _, send, recv, got := faultPair(t, 2, fault.Profile{Loss: 1})
	sendN(t, send, 20, []byte("x0x0"))
	e.RunFor(time.Second)
	if len(got.msgs) != 0 {
		t.Fatalf("delivered %d with loss=1", len(got.msgs))
	}
	if st := recv.Stats(); st.Dropped != 20 || st.Packets != 20 {
		t.Fatalf("receiver stats: %+v", st)
	}
	if st := send.Stats(); st.Packets != 0 {
		t.Fatalf("outbound packets were offered to the sender's fault process: %+v", st)
	}
}

func TestNetDuplication(t *testing.T) {
	e, _, send, recv, got := faultPair(t, 4, fault.Profile{Duplicate: 1})
	sendN(t, send, 10, []byte("dupe"))
	e.RunFor(time.Second)
	if len(got.msgs) != 20 {
		t.Fatalf("delivered %d, want every packet twice", len(got.msgs))
	}
	if st := recv.Stats(); st.Duplicated != 10 {
		t.Fatalf("duplicated = %d", st.Duplicated)
	}
}

// TestNetCorruptionFlipsExactlyOneBit: every delivery differs from what
// was sent in exactly one bit, and a duplicate carries the same flipped
// bit — in a buffer of its own, or it would arrive as the poison its
// original was overwritten with.
func TestNetCorruptionFlipsExactlyOneBit(t *testing.T) {
	e, _, send, _, got := faultPair(t, 5, fault.Profile{Corrupt: 1, Duplicate: 1})
	orig := []byte("corrupt me, deterministically")
	sendN(t, send, 25, orig)
	e.RunFor(time.Second)
	msgs := got.msgs
	if len(msgs) != 50 {
		t.Fatalf("delivered %d, want 25 corrupted packets and their duplicates", len(msgs))
	}
	for _, m := range msgs {
		if len(m) != len(orig) {
			t.Fatalf("length changed: %d vs %d", len(m), len(orig))
		}
		diff := 0
		for i := range m {
			diff += bits.OnesCount8(m[i] ^ orig[i])
		}
		if diff != 1 {
			t.Fatalf("%d bits flipped, want exactly 1", diff)
		}
	}
	// With no delay window a packet and its duplicate arrive back to back.
	for i := 0; i < len(msgs); i += 2 {
		if string(msgs[i]) != string(msgs[i+1]) {
			t.Fatalf("duplicate %d carries a different bit: %q vs %q", i/2, msgs[i], msgs[i+1])
		}
	}
	if string(orig) != "corrupt me, deterministically" {
		t.Fatal("sender's buffer was mutated")
	}
}

// TestNetDataIsValidForTheCallOnly: during the handler call Data is what
// was sent, in a copy private to the delivery; once the handler returns
// the Net poisons that copy, so a retained alias cannot go unnoticed —
// in any seeded run, on any schedule.
func TestNetDataIsValidForTheCallOnly(t *testing.T) {
	e, _, send, recv, _ := faultPair(t, 7, fault.Profile{Duplicate: 1})
	var during []string
	var retained [][]byte
	recv.Subscribe(func(ms []transport.Message) {
		for _, m := range ms {
			during = append(during, string(m.Data))
			retained = append(retained, m.Data) // the bug the poison exists to expose
		}
	})
	orig := []byte("on loan")
	sendN(t, send, 1, orig)
	orig[0] = 'X' // in flight: the sender's slice must not show through
	e.RunFor(time.Second)
	if len(during) != 2 || during[0] != "on loan" || during[1] != "on loan" {
		t.Fatalf("Data during the calls = %q, want the packet and its duplicate as sent", during)
	}
	for i, b := range retained {
		if want := bytes.Repeat([]byte{0xDB}, len(orig)); !bytes.Equal(b, want) {
			t.Fatalf("delivery %d after its handler returned = %q, want it poisoned", i, b)
		}
	}
}

// TestNetDelayWindowReorders: a fate's delay is added to the path delay as
// an ordinary engine event, so packets whose delays cross arrive swapped —
// and a packet delayed under one profile still arrives after the profile
// is swapped out.
func TestNetDelayWindowReorders(t *testing.T) {
	e, net, send, _, got := faultPair(t, 6, fault.Profile{})
	fixed := func(d time.Duration) fault.Profile { return fault.Profile{DelayMin: d, DelayMax: d} }
	set := func(p fault.Profile) {
		t.Helper()
		if err := net.SetProfile(p); err != nil {
			t.Fatal(err)
		}
	}

	// Scripted delays: first packet 3 s, second 1 s → arrival order flips.
	set(fixed(3 * time.Second))
	sendN(t, send, 1, []byte("first"))
	set(fixed(time.Second))
	sendN(t, send, 1, []byte("second"))
	set(fault.Profile{})
	if e.RunFor(500 * time.Millisecond); len(got.msgs) != 0 {
		t.Fatal("delayed packet delivered early")
	}
	// The line's one hop is 10 ms: due at 1.01 s and 3.01 s.
	if e.RunFor(time.Second); len(got.msgs) != 1 {
		t.Fatalf("%d delivered by 1.5 s, want 1", len(got.msgs))
	}
	if e.RunFor(time.Second); len(got.msgs) != 1 {
		t.Fatalf("%d delivered by 2.5 s, want 1", len(got.msgs))
	}
	if e.RunFor(time.Second); len(got.msgs) != 2 {
		t.Fatalf("%d delivered by 3.5 s, want 2", len(got.msgs))
	}
	if string(got.msgs[0]) != "second" || string(got.msgs[1]) != "first" {
		t.Fatalf("no reordering: %q then %q", got.msgs[0], got.msgs[1])
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left behind", e.Pending())
	}
}

// TestNetFatesIndependentPerReceiver: one sender, two receivers under the
// same lossy profile must miss different subsets, and each receiver keeps
// its own counters.
func TestNetFatesIndependentPerReceiver(t *testing.T) {
	e := NewEngine(simStart())
	net, err := NewNet(e, NetConfig{Graph: lineTopo(t, 3), Profile: fault.Profile{Loss: 0.5}, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	send, _ := net.Attach(1)
	var heard [2][]byte
	var eps [2]*Endpoint
	for i, node := range []topology.NodeID{0, 2} {
		ep, err := net.Attach(node)
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		ep.Subscribe(func(ms []transport.Message) {
			for _, m := range ms {
				heard[i] = append(heard[i], m.Data[0])
			}
		})
	}
	for i := 0; i < 64; i++ {
		if err := send.SendBatch(context.Background(), oneDgram([]byte{byte(i), 9, 9, 9}, 10)); err != nil {
			t.Fatal(err)
		}
	}
	e.RunFor(time.Second)
	a, b := heard[0], heard[1]
	if len(a) == 0 || len(b) == 0 || len(a) == 64 || len(b) == 64 {
		t.Fatalf("loss not applied sensibly: %d, %d of 64", len(a), len(b))
	}
	// Identical subsets for 64 packets at 50% loss would be a 2^-64 fluke
	// — i.e. the receivers share their draws.
	if string(a) == string(b) {
		t.Fatal("receivers lost identical packet subsets")
	}
	for i, ep := range eps {
		if st := ep.Stats(); st.Packets != 64 || int(st.Packets-st.Dropped) != len(heard[i]) {
			t.Fatalf("receiver %d stats %+v, heard %d", i, st, len(heard[i]))
		}
	}
}

// TestNetReceiverClosedMidFlight: a receiver that closes while packets
// (and duplicates) are delayed towards it gets none of them, and their
// events drain without leaving anything scheduled.
func TestNetReceiverClosedMidFlight(t *testing.T) {
	e, _, send, recv, got := faultPair(t, 8, fault.Profile{Duplicate: 1, DelayMin: time.Second, DelayMax: 2 * time.Second})
	sendN(t, send, 5, []byte("held"))
	if e.Pending() != 10 {
		t.Fatalf("%d deliveries in flight, want 10", e.Pending())
	}
	e.RunFor(500 * time.Millisecond)
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := recv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	e.RunFor(time.Minute)
	if len(got.msgs) != 0 {
		t.Fatalf("closed receiver heard %d packets", len(got.msgs))
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events leaked", e.Pending())
	}
	// Nothing is offered to a detached receiver either.
	sendN(t, send, 3, []byte("late"))
	if st := recv.Stats(); st.Packets != 5 {
		t.Fatalf("detached receiver was offered packets: %+v", st)
	}
}
