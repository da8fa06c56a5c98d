package topology

import (
	"fmt"

	"sessiondir/internal/stats"
)

// MboneConfig parameterises the synthetic Mbone generator. The generator
// stands in for the 1998 mcollect/mwatch map the paper used (see DESIGN.md
// §2): it reproduces the documented *structure* — nested TTL scope
// boundaries with the European TTL-48 inconsistency of Figure 3, DVMRP hop
// metrics, and Figure-10-shaped hop-count distributions — rather than the
// exact router inventory, which was never published.
type MboneConfig struct {
	// Nodes is the approximate total router count; the generator stops
	// adding sites once it reaches this. The paper's map had 1864 nodes.
	Nodes int
}

// Threshold conventions used on the late-1990s Mbone (paper §1–2):
const (
	thresholdNone    = 1  // ordinary link, no scope boundary
	thresholdSite    = 16 // site boundary: TTL 15 traffic stays inside
	thresholdRegion  = 32 // regional boundary: TTL 31 stays inside
	thresholdCountry = 48 // European national boundary: TTL 47 stays inside
	thresholdBorder  = 64 // country borders elsewhere + continental borders
)

type countrySpec struct {
	name      string
	continent string
	weight    float64 // share of total nodes
	euBorder  bool    // inside the European TTL-48 boundary regime
}

// worldSpec reflects the paper's description: within Europe country
// boundaries are at TTL 48; boundaries between most other countries and
// into/out of Europe are at TTL 64; the US has no TTL 48 boundaries.
var worldSpec = []countrySpec{
	{"US", "NorthAmerica", 0.34, false},
	{"Canada", "NorthAmerica", 0.06, false},
	{"UK", "Europe", 0.10, true},
	{"Germany", "Europe", 0.08, true},
	{"Netherlands", "Europe", 0.05, true},
	{"Scandinavia", "Europe", 0.05, true},
	{"France", "Europe", 0.05, true},
	{"Italy", "Europe", 0.03, true},
	{"Japan", "AsiaPacific", 0.08, false},
	{"Australia", "AsiaPacific", 0.05, false},
	{"Korea", "AsiaPacific", 0.03, false},
	{"RestOfWorld", "Other", 0.08, false},
}

// GenerateMbone builds the synthetic Mbone. The resulting graph is
// connected and labelled: every node carries continent/country/site names
// so tests can assert scope behaviour (e.g. a TTL-47 packet from a UK site
// never leaves the UK, while a TTL-63 packet from Scandinavia reaches it —
// the Figure-3 asymmetry).
//
// Structure per country:
//
//	backbone routers (chain + chords)      threshold 1 links
//	  └── regional hubs                    threshold 32 uplinks
//	        └── sites (1..12 routers)      threshold 16 uplinks,
//	                                       threshold 1 internal links
//
// European countries interconnect through gateway routers with TTL-48
// links; all other country and continental borders use TTL-64 links.
func GenerateMbone(cfg MboneConfig, rng *stats.RNG) (*Graph, error) {
	if cfg.Nodes < 100 {
		return nil, fmt.Errorf("topology: Mbone generator needs >= 100 nodes, got %d", cfg.Nodes)
	}

	b := &mboneBuilder{
		g:   NewGraph(0),
		rng: rng,
	}

	gateways := make(map[string]NodeID)     // country -> gateway backbone router
	continents := make(map[string][]string) // continent -> countries in order
	var continentOrder []string             // worldSpec (first-seen) order, for deterministic iteration
	for _, c := range worldSpec {
		target := int(float64(cfg.Nodes) * c.weight)
		if target < 6 {
			target = 6
		}
		gw := b.buildCountry(c, target)
		gateways[c.name] = gw
		if _, seen := continents[c.continent]; !seen {
			continentOrder = append(continentOrder, c.continent)
		}
		continents[c.continent] = append(continents[c.continent], c.name)
	}

	// Intra-European borders: TTL 48, forming a ring plus chords so intra-EU
	// paths are short.
	var eu []string
	for _, c := range worldSpec {
		if c.euBorder {
			eu = append(eu, c.name)
		}
	}
	for i := range eu {
		a, bb := gateways[eu[i]], gateways[eu[(i+1)%len(eu)]]
		b.link(a, bb, 1, thresholdCountry, b.ms(8, 25))
	}
	// One chord across the EU ring.
	if len(eu) >= 4 {
		b.link(gateways[eu[0]], gateways[eu[len(eu)/2]], 1, thresholdCountry, b.ms(8, 25))
	}

	// Non-European countries within a continent: TTL-64 borders in a chain.
	// Iteration follows worldSpec order: ranging over the continents map
	// here would interleave the builder's RNG draws (link delays) in a
	// different order each run and change the generated topology.
	for _, cname := range continentOrder {
		countries := continents[cname]
		var nonEU []string
		for _, name := range countries {
			if !specOf(name).euBorder {
				nonEU = append(nonEU, name)
			}
		}
		for i := 0; i+1 < len(nonEU); i++ {
			b.link(gateways[nonEU[i]], gateways[nonEU[i+1]], 1, thresholdBorder, b.ms(10, 30))
		}
	}

	// Intercontinental trunks: TTL 64. The US is the historical hub.
	trunks := [][2]string{
		{"US", "UK"},               // transatlantic
		{"US", "Japan"},            // transpacific
		{"US", "Australia"},        // transpacific south
		{"US", "RestOfWorld"},      // everything else homed via the US
		{"Germany", "RestOfWorld"}, // secondary European trunk
	}
	for _, t := range trunks {
		b.link(gateways[t[0]], gateways[t[1]], 2, thresholdBorder, b.ms(60, 120))
	}

	if !b.g.Connected() {
		return nil, fmt.Errorf("topology: generated Mbone is not connected (bug)")
	}
	return b.g, nil
}

func specOf(name string) countrySpec {
	for _, c := range worldSpec {
		if c.name == name {
			return c
		}
	}
	panic("topology: unknown country " + name)
}

type mboneBuilder struct {
	g   *Graph
	rng *stats.RNG
}

func (b *mboneBuilder) addNode(n Node) NodeID {
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.adj = append(b.g.adj, nil)
	return NodeID(len(b.g.Nodes) - 1)
}

func (b *mboneBuilder) link(x, y NodeID, metric int32, threshold uint8, delay float64) {
	b.g.MustAddLink(x, y, metric, threshold, delay)
}

// ms returns a uniform delay in [lo, hi) milliseconds.
func (b *mboneBuilder) ms(lo, hi float64) float64 {
	return lo + b.rng.Float64()*(hi-lo)
}

// buildCountry creates one country's backbone, hubs and sites, spending
// roughly target nodes, and returns the country's gateway router.
func (b *mboneBuilder) buildCountry(spec countrySpec, target int) NodeID {
	// Backbone: one router per ~45 country nodes, min 2.
	nBackbone := target / 45
	if nBackbone < 2 {
		nBackbone = 2
	}
	backbone := make([]NodeID, nBackbone)
	for i := range backbone {
		backbone[i] = b.addNode(Node{
			Name:      fmt.Sprintf("%s-bb%d", spec.name, i),
			Continent: spec.continent,
			Country:   spec.name,
		})
		if i > 0 {
			b.link(backbone[i], backbone[i-1], 1, thresholdNone, b.ms(4, 14))
		}
	}
	// A chord to keep backbone hop counts modest in big countries.
	if nBackbone >= 6 {
		b.link(backbone[0], backbone[nBackbone/2], 1, thresholdNone, b.ms(4, 14))
	}

	spent := nBackbone
	hubs := make([]NodeID, 0, 8)
	// Regional hubs: each serves ~4 sites.
	for spent < target {
		hub := b.addNode(Node{
			Name:      fmt.Sprintf("%s-hub%d", spec.name, len(hubs)),
			Continent: spec.continent,
			Country:   spec.name,
		})
		hubs = append(hubs, hub)
		spent++
		bb := backbone[b.rng.IntN(nBackbone)]
		b.link(hub, bb, 1, thresholdRegion, b.ms(2, 8))

		sitesForHub := 3 + b.rng.IntN(3)
		for s := 0; s < sitesForHub && spent < target; s++ {
			spent += b.buildSite(spec, hub, len(hubs)-1, s, target-spent)
		}
	}
	return backbone[0]
}

// buildSite adds one site subtree under hub and returns the node count
// spent. Site sizes follow a long-tailed distribution: mostly 1–4 routers,
// occasionally up to 12 (large campuses), giving TTL-15 scopes hop-count
// tails near the paper's Figure-10 maximum of ~10.
func (b *mboneBuilder) buildSite(spec countrySpec, hub NodeID, hubIdx, siteIdx, maxSpend int) int {
	size := 1 + b.rng.IntN(4)
	if b.rng.Float64() < 0.08 {
		size = 5 + b.rng.IntN(8) // occasional large campus
	}
	if size > maxSpend {
		size = maxSpend
	}
	if size <= 0 {
		return 0
	}
	siteName := fmt.Sprintf("%s-h%d-s%d", spec.name, hubIdx, siteIdx)
	routers := make([]NodeID, size)
	for i := 0; i < size; i++ {
		routers[i] = b.addNode(Node{
			Name:      fmt.Sprintf("%s-r%d", siteName, i),
			Continent: spec.continent,
			Country:   spec.name,
			Site:      siteName,
		})
		if i == 0 {
			// Site border router: TTL-16 boundary toward the hub.
			b.link(routers[0], hub, 1, thresholdSite, b.ms(1, 4))
		} else {
			// Chain with occasional branching: long thin campuses.
			parent := routers[i-1]
			if i >= 2 && b.rng.Float64() < 0.3 {
				parent = routers[b.rng.IntN(i)]
			}
			b.link(routers[i], parent, 1, thresholdNone, b.ms(0.5, 2))
		}
	}
	return size
}

// NodesInCountry returns the ids of all routers labelled with country.
func NodesInCountry(g *Graph, country string) []NodeID { //mclint:unused sim's, des's and topology's tests pick a country's routers with it
	var out []NodeID
	for i, n := range g.Nodes {
		if n.Country == country {
			out = append(out, NodeID(i))
		}
	}
	return out
}
