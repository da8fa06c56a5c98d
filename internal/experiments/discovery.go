package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"sessiondir"
	"sessiondir/internal/announce"
	"sessiondir/internal/des"
	"sessiondir/internal/fault"
	"sessiondir/internal/session"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

// RunDiscovery measures, at the packet level through the real directory
// stack, the mean session discovery delay under loss for different
// announcement schedules — the quantity §2.3 reduces to the invisible
// fraction i and §4 requires to be driven down with a 5 s-start
// exponential back-off. The measured means are printed next to the
// analytic model's prediction.
func RunDiscovery(w io.Writer, s Scale) error {
	g, err := topology.GenerateMbone(topology.MboneConfig{Nodes: 300}, stats.NewRNG(s.Seed))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# discovery delay vs loss and announcement schedule (packet-level DES)")
	fmt.Fprintln(w, "# schedule        loss   measured_mean   analytic_mean   learned")

	schedules := []struct {
		name string
		b    announce.Backoff
	}{
		{"constant 60s", announce.Backoff{Initial: 60 * time.Second, Factor: 1, Steady: 60 * time.Second}},
		{"exp 5s->60s", announce.DefaultBackoff(60 * time.Second)},
	}
	const listeners = 12
	trials := s.RRTrials
	if trials < 1 {
		trials = 1
	}

	for _, sched := range schedules {
		for _, loss := range []float64{0, 0.05, 0.2} {
			var delays stats.Summary
			learned := 0
			for trial := 0; trial < trials; trial++ {
				engine := des.NewEngine(time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC))
				net, err := des.NewNet(engine, des.NetConfig{
					Graph:   g,
					Profile: fault.Profile{Loss: loss},
					Seed:    s.Seed + uint64(trial)*101,
				})
				if err != nil {
					return err
				}
				rng := stats.NewRNG(s.Seed + uint64(trial))
				perm := rng.Perm(g.NumNodes())
				nodes := make([]topology.NodeID, listeners+1)
				for i := range nodes {
					nodes[i] = topology.NodeID(perm[i])
				}
				learnedAt := make(map[int]time.Time)
				var createdAt time.Time
				fleet, err := des.NewFleet(engine, net, des.FleetConfig{
					Nodes:   nodes,
					Space:   128,
					Backoff: sched.b,
					Seed:    s.Seed + uint64(trial)*13,
					OnEvent: func(idx int, e sessiondir.Event) {
						if idx > 0 && e.Kind == sessiondir.EventSessionLearned {
							if _, dup := learnedAt[idx]; !dup {
								learnedAt[idx] = engine.Now()
							}
						}
					},
				})
				if err != nil {
					return err
				}
				createdAt = engine.Now()
				if _, err := fleet.Dirs[0].CreateSession(&session.Description{
					Name:  "probe",
					TTL:   191,
					Media: []session.Media{{Type: "audio", Port: 20000, Proto: "RTP/AVP", Format: "0"}},
				}); err != nil {
					return err
				}
				engine.RunFor(10 * time.Minute)
				// Fold delays in listener order: float accumulation is not
				// associative, so summing in map order would make the mean
				// differ run to run.
				idxs := make([]int, 0, len(learnedAt))
				for idx := range learnedAt {
					idxs = append(idxs, idx)
				}
				sort.Ints(idxs)
				for _, idx := range idxs {
					delays.Add(learnedAt[idx].Sub(createdAt).Seconds())
					learned++
				}
				fleet.Close()
			}
			// Analytic: mean of first-delivery time under the schedule with
			// network delay ≈ mean root delay of the topology.
			analyticMean := sched.b.MeanDiscoveryDelay(loss, 0.05)
			fmt.Fprintf(w, "%-15s %5.0f%%   %10.2fs   %12.2fs   %d/%d\n",
				sched.name, loss*100, delays.Mean(), analyticMean,
				learned, listeners*trials)
		}
	}
	fmt.Fprintln(w, "# the exponential schedule keeps discovery fast even at high loss (§4)")
	return nil
}
