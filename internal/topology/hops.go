package topology

import (
	"sessiondir/internal/mcast"
	"sessiondir/internal/stats"
)

// HopHistograms computes the Figure-10 curve for each TTL scope in ttls:
// over every potential source mrouter, the histogram of the number of
// mrouters at each hop distance that traffic sent at that TTL actually
// reaches, combined over all sources (the paper normalises it for
// plotting; use IntHistogram.Normalized). It also returns the largest hop
// count of any source's tree, ignoring TTL thresholds: the diameter the
// paper observes to stay under the DVMRP infinite metric of 32.
//
// sources limits the computation to the given source subset; pass nil for
// all nodes (paper behaviour). Each source's tree is built once for all
// the TTLs.
func HopHistograms(g *Graph, ttls []mcast.TTL, sources []NodeID) ([]*stats.IntHistogram, int) {
	hs := make([]*stats.IntHistogram, len(ttls))
	for i := range hs {
		hs[i] = &stats.IntHistogram{}
	}
	if sources == nil {
		sources = make([]NodeID, g.NumNodes())
		for i := range sources {
			sources[i] = NodeID(i)
		}
	}
	diameter := 0
	for _, src := range sources {
		t := NewSPTree(g, src)
		for v, m := range minTTLs(g, t) {
			d := int(t.depth[v])
			diameter = max(diameter, d)
			for i, ttl := range ttls {
				if m != 0 && mcast.TTL(m) <= ttl {
					hs[i].Add(d)
				}
			}
		}
	}
	return hs, diameter
}

// HopStats is one row of the paper's §2.4.1 TTL table.
type HopStats struct {
	TTL             mcast.TTL
	MostFrequentHop int     // mode of the hop-count distribution
	MeanHop         float64 // mean hop count
	MaxHop          int     // maximum hop count observed
}

// HopStatsForTTLs computes the §2.4.1 table (most frequent and maximum hop
// count per TTL scope) over the given sources (nil = all), and the
// diameter HopHistograms returns.
func HopStatsForTTLs(g *Graph, ttls []mcast.TTL, sources []NodeID) ([]HopStats, int) {
	hs, diameter := HopHistograms(g, ttls, sources)
	out := make([]HopStats, len(ttls))
	for i, h := range hs {
		out[i] = HopStats{
			TTL:             ttls[i],
			MostFrequentHop: h.Mode(),
			MeanHop:         h.Mean(),
			MaxHop:          h.Max(),
		}
	}
	return out, diameter
}
