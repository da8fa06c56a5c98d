// Quickstart: two session directory agents on an in-process bus. One
// creates a session (the directory allocates its multicast address and
// announces it); the other discovers it from the announcement.
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"sessiondir"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

func main() {
	bus := transport.NewBus()

	alice, err := sessiondir.New(sessiondir.Config{
		Origin:    netip.MustParseAddr("10.0.0.1"),
		Transport: bus.Endpoint(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer alice.Close()

	bob, err := sessiondir.New(sessiondir.Config{
		Origin:    netip.MustParseAddr("10.0.0.2"),
		Transport: bus.Endpoint(),
		OnEvent: func(e sessiondir.Event) {
			if e.Kind == sessiondir.EventSessionLearned {
				desc := e.Description()
				fmt.Printf("bob learned: %q on %s (ttl %d)\n", desc.Name, desc.Group, desc.TTL)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer bob.Close()

	// Alice creates a session; the directory picks the multicast address.
	desc, err := alice.CreateSession(&session.Description{
		Name: "Mbone Tools Seminar",
		Info: "weekly seminar over IP multicast",
		TTL:  127,
		Media: []session.Media{
			{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"},
			{Type: "video", Port: 20002, Proto: "RTP/AVP", Format: "31"},
		},
		Start: time.Now(),
		Stop:  time.Now().Add(2 * time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice announced %q on %s\n", desc.Name, desc.Group)

	fmt.Println("bob's session list:")
	for _, s := range bob.Sessions() {
		fmt.Printf("  %q group=%s ttl=%d origin=%s\n", s.Name, s.Group, s.TTL, s.Origin)
	}

	// Withdraw and confirm the listing empties.
	if err := alice.WithdrawSession(desc.Key()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after withdrawal bob knows %d sessions\n", len(bob.Sessions()))
}
