package transport

import (
	"fmt"
	"net"
	"runtime"
	"time"
)

// Receive-path throughput harness.
//
// RecvThroughput measures the cost of *draining* datagrams in isolation:
// each round queues perRound datagrams on a loopback socket while no
// reader is running, then drains them the way the UDP read loop does —
// platform batchConn (recvmmsg on linux), a ring read into in place,
// lock-free handler, zero-copy loan — timing only the drain. Keeping the
// fill outside the clock is what lets the number answer "how fast can
// the receive path retire a backlog" — the question SAP announcement
// bursts ask — rather than blending in sender-side syscall cost.
//
// Both the transport's own benchmark and cmd/mcbench call this, so the
// number in BENCH.json and the number a `go test -bench` run prints come
// from the same code path.

// RecvThroughputResult aggregates the timed drains.
type RecvThroughputResult struct {
	Datagrams int   // datagrams actually drained inside the clock
	Reads     int   // receive calls (≈ syscalls) used to drain them
	DrainNs   int64 // time spent draining, fill excluded
	// AllocsPerDatagram is the mean heap allocations per drained
	// datagram, measured after a warm-up round (the steady-state gate
	// wants exactly 0).
	AllocsPerDatagram float64
}

// BatchDepth is the mean datagrams retired per receive call — the
// syscall amortization factor (1.0 for the portable path, up to
// readBatchSize for recvmmsg).
func (r RecvThroughputResult) BatchDepth() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.Datagrams) / float64(r.Reads)
}

// NsPerDatagram is the per-datagram receive cost.
func (r RecvThroughputResult) NsPerDatagram() float64 {
	if r.Datagrams == 0 {
		return 0
	}
	return float64(r.DrainNs) / float64(r.Datagrams)
}

// DatagramsPerSec is the drain rate.
func (r RecvThroughputResult) DatagramsPerSec() float64 {
	if r.DrainNs == 0 {
		return 0
	}
	return float64(r.Datagrams) / (float64(r.DrainNs) / 1e9)
}

// RecvThroughput runs the fill-then-drain benchmark: rounds rounds of
// perRound datagrams of payloadLen bytes over loopback. perRound must
// stay well under the socket buffer (64 datagrams of ≤1 kB is safe
// everywhere); dropped datagrams are tolerated via a drain deadline so a
// lossy kernel buffer skews the number instead of hanging the run.
func RecvThroughput(rounds, perRound, payloadLen int) (RecvThroughputResult, error) {
	var res RecvThroughputResult
	rx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return res, fmt.Errorf("transport: bench listen: %w", err)
	}
	defer rx.Close()
	_ = rx.SetReadBuffer(1 << 21) // room for the whole fill, best-effort
	tx, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return res, fmt.Errorf("transport: bench sender: %w", err)
	}
	defer tx.Close()
	dst := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}

	// drain receives up to want datagrams (stopping early at the deadline
	// if some were dropped) and reports how many arrived and how long it
	// took; reads counts receive calls, for the batch-depth metric.
	reads := 0
	bc := newBatchConn(rx)
	slots := make([]rxSlot, readBatchSize)
	for i := range slots {
		slots[i].buf = make([]byte, maxDatagram+1)
	}
	// The handler mirrors what a subscription costs the loop: the accepted
	// datagrams gathered into a reused batch, and one indirect call per
	// receive call.
	handler := Handler(func([]Message) {})
	hp := &handler
	batch := make([]Message, 0, readBatchSize)
	drain := func(want int) (int, int64, error) {
		got := 0
		start := time.Now() //mclint:detrand the harness measures real elapsed time; that is the product
		_ = rx.SetReadDeadline(start.Add(2 * time.Second))
		for got < want {
			n, err := bc.ReadBatch(slots)
			reads++
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break
				}
				return got, time.Since(start).Nanoseconds(), err //mclint:detrand timing is the measurement
			}
			h := hp
			batch = batch[:0]
			for i := 0; i < n; i++ {
				s := &slots[i]
				batch = append(batch, Message{From: s.from, Data: s.buf[:s.n]})
			}
			if n > 0 {
				(*h)(batch)
			}
			got += n
		}
		return got, time.Since(start).Nanoseconds(), nil //mclint:detrand timing is the measurement
	}
	fill := func() (int, error) {
		for i := 0; i < perRound; i++ {
			if _, err := tx.WriteToUDPAddrPort(payload, dst); err != nil {
				return 0, fmt.Errorf("transport: bench fill: %w", err)
			}
		}
		return perRound, nil
	}

	// Warm-up round: page in the path and the ring, so the measured
	// rounds see steady state.
	if _, err := fill(); err != nil {
		return res, err
	}
	if _, _, err := drain(perRound); err != nil {
		return res, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	reads = 0
	for r := 0; r < rounds; r++ {
		if _, err := fill(); err != nil {
			return res, err
		}
		got, ns, err := drain(perRound)
		if err != nil {
			return res, err
		}
		res.Datagrams += got
		res.DrainNs += ns
	}
	res.Reads = reads
	runtime.ReadMemStats(&ms1)
	if res.Datagrams > 0 {
		res.AllocsPerDatagram = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Datagrams)
	}
	return res, nil
}
