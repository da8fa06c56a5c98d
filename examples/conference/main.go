// Conference: reproduces the paper's clash scenario end to end. Two
// organisations are partitioned (a failed link), both schedule conferences
// and — with a tiny address space — allocate the same multicast group.
// When the partition heals, the three-phase protocol resolves the clash:
// the long-standing session defends its address, the recent one moves, and
// a third-party observer would defend either if its owner went silent.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"sync"
	"time"

	"sessiondir"
	"sessiondir/internal/allocator"
	"sessiondir/internal/mcast"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

// virtualClock lets the example run the protocol's timers instantly.
type virtualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *virtualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

func main() {
	bus := transport.NewBus()
	clock := &virtualClock{t: time.Date(1998, 9, 1, 9, 0, 0, 0, time.UTC)}

	newAgent := func(origin string, seed uint64) *sessiondir.Directory {
		const space = 4 // tiny on purpose: forces the clash
		d, err := sessiondir.New(sessiondir.Config{
			Origin:    netip.MustParseAddr(origin),
			Transport: bus.Endpoint(),
			Space:     mcast.SyntheticSpace(space),
			Allocator: allocator.NewAdaptive(space, allocator.AdaptiveConfig{GapFraction: 0.2}),
			Clock:     clock.now,
			Seed:      seed,
			OnEvent: func(e sessiondir.Event) {
				if desc := e.Description(); desc != nil {
					fmt.Printf("  [%s] %-16s %q -> %s\n", origin, e.Kind, desc.Name, desc.Group)
				}
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return d
	}

	london := newAgent("10.1.0.1", 1)
	boston := newAgent("10.2.0.1", 2)
	defer london.Close()
	defer boston.Close()

	fmt.Println("== transatlantic link down: the sites cannot hear each other ==")
	bus.SetPolicy(func(int, int, mcast.TTL) bool { return false })

	mkDesc := func(name string) *session.Description {
		return &session.Description{
			Name:  name,
			TTL:   127,
			Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
		}
	}
	lonDesc, err := london.CreateSession(mkDesc("London all-hands"))
	if err != nil {
		log.Fatal(err)
	}
	clock.advance(10 * time.Minute)
	bosDesc, err := boston.CreateSession(mkDesc("Boston planning call"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("london allocated %s, boston allocated %s — CLASH pending\n",
		lonDesc.Group, bosDesc.Group)

	fmt.Println("== link repaired: announcements flow again ==")
	bus.SetPolicy(nil)
	// Boston's back-off re-announcement fires ~5 s after its creation.
	boston.Step(clock.advance(6 * time.Second))
	// London heard Boston's clashing announcement. London's session is
	// long-standing, so it defended; Boston, the recent announcer, moved.
	london.Step(clock.advance(time.Second))

	fmt.Println("== final state ==")
	for _, d := range []*sessiondir.Directory{london, boston} {
		for _, s := range d.OwnSessions() {
			fmt.Printf("  %q on %s (version %d)\n", s.Name, s.Group, s.Version)
		}
	}
	lg := london.OwnSessions()[0].Group
	bg := boston.OwnSessions()[0].Group
	if lg == bg {
		log.Fatal("clash not resolved!")
	}
	fmt.Println("clash resolved: distinct groups, long-standing session kept its address")
}
