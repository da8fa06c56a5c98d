package main

import (
	"context"
	"fmt"
	"net/netip"
	"os"
	"sync/atomic"
	"time"

	"sessiondir/internal/transport"
)

// udpRounds is how many batches the loopback probe sends.
const udpRounds = 64

// probeUDP measures what the in-process workloads leave out: the cost of
// moving the workload's own datagrams through real sockets. It sends
// them, a batch at a time, from one UDPTransport to another over the
// host's loopback interface, into a handler that only counts. The three
// numbers are the term to add to an in-process figure for a
// socket-to-socket estimate; they move no end-to-end metric here.
//
//	send_ns_per_dgram  time inside SendBatch ÷ datagrams
//	recv_ns_per_dgram  time from SendBatch returning until the last
//	                   datagram of the round was handled ÷ datagrams
//	batch_depth        datagrams ÷ handler invocations
//
// A host that refuses loopback sockets leaves all three at zero.
func probeUDP(s *dirScript, pl map[string]float64) {
	if err := probeUDPInto(s, pl); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: loopback UDP probe skipped:", err)
	}
}

func probeUDPInto(s *dirScript, pl map[string]float64) error {
	// The batches the script hands the program, set-up included; the
	// probe sends the last udpRounds of them.
	inputs := append([][]transport.Message(nil), s.preload...)
	for _, c := range s.calls {
		if c.kind == opHandleBatch && c.clashWith == nil {
			inputs = append(inputs, c.msgs)
		}
	}
	var rounds [][]transport.Datagram
	for _, ms := range inputs[max(0, len(inputs)-udpRounds):] {
		batch := make([]transport.Datagram, len(ms))
		for i, m := range ms {
			batch[i] = transport.Datagram{Data: m.Data, Scope: 1}
		}
		rounds = append(rounds, batch)
	}
	if len(rounds) == 0 {
		return nil
	}

	// The receiver never sends; unicast mode just needs some peer.
	rx, err := transport.NewUDP(transport.UDPConfig{Peers: []netip.AddrPort{netip.MustParseAddrPort("127.0.0.1:9")}})
	if err != nil {
		return err
	}
	defer rx.Close() //nolint:errcheck // read side only
	tx, err := transport.NewUDP(transport.UDPConfig{Peers: []netip.AddrPort{rx.LocalAddr()}})
	if err != nil {
		return err
	}
	defer tx.Close() //nolint:errcheck // nothing buffered

	var got, want, batches atomic.Int64
	done := make(chan struct{}, 1)
	rx.SubscribeBatch(func(ms []transport.Message) {
		for i := range ms {
			ms[i].Release()
		}
		batches.Add(1)
		if got.Add(int64(len(ms))) >= want.Load() {
			select {
			case done <- struct{}{}:
			default:
			}
		}
	})

	var sendNS, recvNS []float64
	for _, batch := range rounds {
		n := float64(len(batch))
		want.Add(int64(len(batch)))
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		t0 := time.Now()
		err := tx.SendBatch(ctx, batch)
		sent := time.Since(t0)
		cancel()
		if err != nil {
			return err
		}
		select {
		case <-done:
		case <-time.After(time.Second):
			return fmt.Errorf("loopback dropped datagrams: %d of %d arrived", got.Load(), want.Load())
		}
		all := time.Since(t0)
		sendNS = append(sendNS, float64(sent)/n)
		recvNS = append(recvNS, float64(all-sent)/n)
	}
	pl["transport.udp.send_ns_per_dgram"] = median(sendNS)
	pl["transport.udp.recv_ns_per_dgram"] = median(recvNS)
	pl["transport.udp.batch_depth"] = ratio(float64(got.Load()), float64(batches.Load()))
	return nil
}
