package topology

import "fmt"

// AdminZone is an administratively scoped region (§1 of the paper): a set
// of routers whose borders are configured to keep admin-scoped groups in
// and out. Unlike TTL scoping, admin scoping is *symmetric* — barring
// failures, two sites inside a zone always hear each other's messages for
// that zone, and no outside packet addressed to the zone's range gets in.
// That symmetry is what makes allocation easy inside admin zones, and its
// absence is what the rest of the paper wrestles with.
type AdminZone struct {
	Name    string
	members *NodeSet
}

// NewAdminZone builds a zone over the given member routers.
func NewAdminZone(name string, g *Graph, members []NodeID) (*AdminZone, error) {
	if name == "" {
		return nil, fmt.Errorf("topology: admin zone needs a name")
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("topology: admin zone %q has no members", name)
	}
	set := NewNodeSet(g.NumNodes())
	for _, m := range members {
		if int(m) < 0 || int(m) >= g.NumNodes() {
			return nil, fmt.Errorf("topology: admin zone %q member %d outside graph", name, m)
		}
		set.Add(m)
	}
	return &AdminZone{Name: name, members: set}, nil
}

// Members returns the zone's reach set: admin-scoped traffic from any
// member reaches exactly the members.
func (z *AdminZone) Members() *NodeSet { return z.members }

// Size returns the member count.
func (z *AdminZone) Size() int { return z.members.Len() } //mclint:unused sim's admin-zone tests check the zones cover the graph with it

// ZonesFromCountries derives one administrative zone per labelled country
// of a generated Mbone — the typical late-90s deployment pattern where
// admin boundaries followed organisational ones.
func ZonesFromCountries(g *Graph) ([]*AdminZone, error) {
	byCountry := map[string][]NodeID{}
	var order []string
	for i, n := range g.Nodes {
		if n.Country == "" {
			continue
		}
		if _, seen := byCountry[n.Country]; !seen {
			order = append(order, n.Country)
		}
		byCountry[n.Country] = append(byCountry[n.Country], NodeID(i))
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("topology: graph has no country labels")
	}
	zones := make([]*AdminZone, 0, len(order))
	for _, c := range order {
		z, err := NewAdminZone(c, g, byCountry[c])
		if err != nil {
			return nil, err
		}
		zones = append(zones, z)
	}
	return zones, nil
}
