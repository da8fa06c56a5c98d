// Sapdump: encodes a SAP announcement, prints its wire form, decodes it
// back, and — given -listen — dumps live SAP packets from the network.
// A minimal protocol-debugging companion, in the spirit of tcpdump.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/netip"
	"os"
	"os/signal"
	"time"

	"sessiondir/internal/sap"
	"sessiondir/internal/session"
	"sessiondir/internal/transport"
)

func main() {
	var (
		listen = flag.Bool("listen", false, "join the SAP group and dump received packets")
		group  = flag.String("group", transport.DefaultSAPGroup.String(), "SAP group to join")
		port   = flag.Uint("port", transport.DefaultSAPPort, "SAP port")
	)
	flag.Parse()

	if *listen {
		dumpLive(*group, uint16(*port))
		return
	}

	desc := &session.Description{
		ID:         4711,
		Version:    1,
		Origin:     netip.MustParseAddr("10.0.0.1"),
		OriginUser: "mjh",
		Name:       "SAP codec demo",
		Group:      netip.MustParseAddr("224.2.128.99"),
		TTL:        63,
		Start:      time.Now().Truncate(time.Second),
		Stop:       time.Now().Add(time.Hour).Truncate(time.Second),
		Media:      []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
	}
	payload, err := desc.MarshalSDP()
	if err != nil {
		log.Fatal(err)
	}
	pkt := sap.Packet{
		Type:      sap.Announce,
		MsgIDHash: sap.MsgIDHashOf(payload),
		Origin:    desc.Origin,
		Payload:   payload,
	}
	wire, err := pkt.Marshal(nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("SAP packet: %d bytes, msg-id-hash 0x%04x\n", len(wire), pkt.MsgIDHash)
	hexdump(wire)

	var decoded sap.Packet
	if err := decoded.Decode(wire); err != nil {
		log.Fatal(err)
	}
	back, err := session.ParseSDP(decoded.Payload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndecoded: type=%s origin=%s payload-type=%s\n",
		decoded.Type, decoded.Origin, decoded.EffectivePayloadType())
	fmt.Printf("session: %q group=%s ttl=%d media=%d stream(s)\n",
		back.Name, back.Group, back.TTL, len(back.Media))
}

func dumpLive(group string, port uint16) {
	g, err := netip.ParseAddr(group)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := transport.NewUDP(transport.UDPConfig{Group: g, Port: port})
	if err != nil {
		log.Fatalf("join %s:%d: %v (no multicast here? try the codec demo without -listen)", g, port, err)
	}
	defer tr.Close()
	log.Printf("listening on %s:%d", g, port)

	tr.Subscribe(func(ms []transport.Message) {
		// Each m.Data is valid until this handler returns. Everything below
		// either aliases it only that long or keeps fresh strings
		// (ParseSDP copies what it keeps).
		for _, m := range ms {
			var pkt sap.Packet
			if err := pkt.Decode(m.Data); err != nil {
				log.Printf("%s: undecodable SAP packet: %v", m.From, err)
				continue
			}
			desc, err := session.ParseSDP(pkt.Payload)
			if err != nil {
				log.Printf("%s: %s from %s (non-SDP payload)", m.From, pkt.Type, pkt.Origin)
				continue
			}
			log.Printf("%s: %s %q group=%s ttl=%d", m.From, pkt.Type, desc.Name, desc.Group, desc.TTL)
		}
	})

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}

func hexdump(b []byte) {
	for off := 0; off < len(b); off += 16 {
		end := off + 16
		if end > len(b) {
			end = len(b)
		}
		fmt.Printf("%04x  ", off)
		for i := off; i < end; i++ {
			fmt.Printf("%02x ", b[i])
		}
		for i := end; i < off+16; i++ {
			fmt.Print("   ")
		}
		fmt.Print(" |")
		for i := off; i < end; i++ {
			c := b[i]
			if c < 32 || c > 126 {
				c = '.'
			}
			fmt.Printf("%c", c)
		}
		fmt.Println("|")
	}
}
