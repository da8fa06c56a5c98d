// Command mktopo generates and inspects the topologies the simulations
// run over: the synthetic Mbone (the stand-in for the 1998 mcollect map)
// and Doar-style grid graphs.
//
// Usage:
//
//	mktopo -kind mbone -nodes 1864 -stats
//	mktopo -kind grid -nodes 3200 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
	"sessiondir/internal/topology"
)

func main() {
	var (
		kind    = flag.String("kind", "mbone", "topology kind: mbone | grid")
		nodes   = flag.Int("nodes", 1864, "number of routers")
		seed    = flag.Uint64("seed", 1998, "generator seed")
		dump    = flag.Bool("dump", false, "dump the link list")
		doStats = flag.Bool("stats", true, "print hop-count statistics")
		outFile = flag.String("out", "", "write the topology to this file")
		inFile  = flag.String("in", "", "load a topology file instead of generating")
		audit   = flag.Bool("audit", false, "audit for Figure-3 scope/partition hazards (IPR 3-band)")
	)
	flag.Parse()

	rng := stats.NewRNG(*seed)
	var g *topology.Graph
	var err error
	switch {
	case *inFile != "":
		var f *os.File
		if f, err = os.Open(*inFile); err == nil {
			g, err = topology.Read(f)
			f.Close()
		}
	case *kind == "mbone":
		g, err = topology.GenerateMbone(topology.MboneConfig{Nodes: *nodes}, rng)
	case *kind == "grid":
		g, err = topology.GenerateGrid(*nodes, rng)
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q (mbone | grid)\n", *kind)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := topology.Write(f, g); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("# wrote %s\n", *outFile)
	}

	fmt.Printf("# %s topology: %d nodes, %d links, connected=%v\n",
		*kind, g.NumNodes(), g.NumLinks(), g.Connected())

	if *dump {
		for i := 0; i < g.NumNodes(); i++ {
			for _, e := range g.Neighbors(topology.NodeID(i)) {
				if int(e.To) < i {
					continue // print each undirected link once
				}
				fmt.Printf("link %s -- %s metric=%d threshold=%d delay=%.2fms\n",
					g.Nodes[i].Name, g.Nodes[e.To].Name, e.Metric, e.Threshold, e.Delay)
			}
		}
	}

	if *audit {
		sample := 40
		var sites []topology.NodeID
		if g.NumNodes() > sample {
			perm := rng.Perm(g.NumNodes())
			for i := 0; i < sample; i++ {
				sites = append(sites, topology.NodeID(perm[i]))
			}
		}
		hazards := topology.AuditScopes(g, topology.AuditConfig{
			TTLs: []mcast.TTL{1, 15, 31, 47, 63, 127, 191},
			PartitionOf: func(t mcast.TTL) int {
				switch {
				case t < 15:
					return 0
				case t < 64:
					return 1
				default:
					return 2
				}
			},
			Sites:      sites,
			MaxHazards: 20,
		})
		fmt.Printf("# scope audit (IPR 3-band partitioning): %d hazards\n", len(hazards))
		for _, h := range hazards {
			fmt.Printf("hazard: %s (%s vs %s)\n", h,
				g.Nodes[h.AllocSite].Name, g.Nodes[h.HiddenSite].Name)
		}
	}

	if *doStats {
		sample := 100
		if g.NumNodes() < sample {
			sample = 0
		}
		var sources []topology.NodeID
		if sample > 0 {
			perm := rng.Perm(g.NumNodes())
			for i := 0; i < sample; i++ {
				sources = append(sources, topology.NodeID(perm[i]))
			}
			fmt.Printf("# hop stats over %d sampled sources\n", sample)
		} else {
			fmt.Println("# hop stats over all sources")
		}
		fmt.Println("# TTL  mostfreq  mean   max")
		rows, _ := topology.HopStatsForTTLs(g, []mcast.TTL{15, 47, 63, 127, 255}, sources)
		for _, row := range rows {
			fmt.Printf("%5d  %8d  %5.1f  %4d\n", row.TTL, row.MostFrequentHop, row.MeanHop, row.MaxHop)
		}
	}
}
