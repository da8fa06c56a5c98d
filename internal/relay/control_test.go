package relay

import (
	"strings"
	"testing"
	"time"
)

func TestControlHandleCommand(t *testing.T) {
	r := mustRelay(t, Config{Seed: 21})
	a, b := newEndpoint(t), newEndpoint(t)
	if _, _, err := r.Attach(a.addr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Attach(b.addr); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		cmd  string
		want string // reply prefix
	}{
		{"ping", "OK pong"},
		{"partition 0|1", "OK partitioned groups=2"},
		{"heal", "OK healed"},
		{"link * * loss=0.25 dup=0.1 corrupt=0.01 delay=1ms:20ms", "OK link"},
		{"link 0 1 loss=0", "OK link"},
		{"stats", "OK forwarded=0"},
		{"", "ERR"},
		{"nope", "ERR unknown command"},
		{"partition x|y", "ERR"},
		{"partition 0|0", "ERR"},
		{"link 0 1 loss=2", "ERR"},
		{"link * * loss=NaN", "ERR"}, // NaN compares false with everything: it must not pass a range check
		{"link 0 1 delay=5ms", "ERR"},
		{"link a b", "ERR"},
	}
	for _, c := range cases {
		if got := r.handleCommand(c.cmd); !strings.HasPrefix(got, c.want) {
			t.Errorf("handleCommand(%q) = %q, want prefix %q", c.cmd, got, c.want)
		}
	}
}

func TestControlAppliesState(t *testing.T) {
	r := mustRelay(t, Config{Seed: 22})
	a, b := newEndpoint(t), newEndpoint(t)
	if _, _, err := r.Attach(a.addr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Attach(b.addr); err != nil {
		t.Fatal(err)
	}
	if got := r.handleCommand("partition 0|1"); !strings.HasPrefix(got, "OK") {
		t.Fatal(got)
	}
	if r.SeveredLinks() != 2 {
		t.Fatalf("SeveredLinks = %d after control partition, want 2", r.SeveredLinks())
	}
	if got := r.handleCommand("link * * loss=1"); !strings.HasPrefix(got, "OK") {
		t.Fatal(got)
	}
	r.mu.Lock()
	p := r.linkFor(0, 1).Profile
	r.mu.Unlock()
	if p.Loss != 1 {
		t.Fatalf("link 0→1 loss = %g after control set, want 1", p.Loss)
	}
	if got := r.handleCommand("heal"); !strings.HasPrefix(got, "OK") {
		t.Fatal(got)
	}
	if r.SeveredLinks() != 0 {
		t.Fatalf("SeveredLinks = %d after heal, want 0", r.SeveredLinks())
	}
}

// TestControlOverUDP exercises the real socket loop: command datagram
// in, reply datagram out.
func TestControlOverUDP(t *testing.T) {
	r := mustRelay(t, Config{Seed: 23})
	ctlAddr, err := r.ServeControl()
	if err != nil {
		t.Fatal(err)
	}
	// Second ServeControl is a no-op returning the same address.
	again, err := r.ServeControl()
	if err != nil || again != ctlAddr {
		t.Fatalf("second ServeControl = %v, %v; want %v, nil", again, err, ctlAddr)
	}

	client := newSender(t)
	if err := client.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	roundTrip := func(cmd string) string {
		t.Helper()
		if _, err := client.WriteToUDPAddrPort([]byte(cmd), ctlAddr); err != nil {
			t.Fatal(err)
		}
		n, _, err := client.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("no reply to %q: %v", cmd, err)
		}
		return string(buf[:n])
	}
	if got := roundTrip("ping"); got != "OK pong" {
		t.Fatalf("ping → %q", got)
	}
	if got := roundTrip("stats"); !strings.HasPrefix(got, "OK forwarded=") {
		t.Fatalf("stats → %q", got)
	}
	if got := roundTrip("bogus"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bogus → %q", got)
	}
}

// TestParseProfileRejectsNegativeDelay: the control socket refuses a delay
// window no link could run (the parser's own table is in internal/fault).
func TestParseProfileRejectsNegativeDelay(t *testing.T) {
	r := mustRelay(t, Config{Seed: 25})
	for _, cmd := range []string{"link * * delay=-1ms:5ms", "link * * delay=10ms:5ms"} {
		if got := r.handleCommand(cmd); !strings.HasPrefix(got, "ERR") {
			t.Errorf("handleCommand(%q) = %q, want ERR", cmd, got)
		}
	}
}

// guard against the relay double-closing its control socket.
func TestRelayCloseWithControl(t *testing.T) {
	r, err := New(Config{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ServeControl(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
