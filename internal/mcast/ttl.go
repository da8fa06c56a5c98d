package mcast

// TTL is an IPv4 time-to-live value as used for Mbone scope control.
type TTL uint8

// MaxTTL is the largest possible TTL value.
const MaxTTL TTL = 255

// ScopeName returns the conventional human-readable name for a scope TTL.
func ScopeName(t TTL) string { //mclint:unused the root package's ExampleDirectory_CreateSession prints scopes with it
	switch {
	case t == 0:
		return "host"
	case t <= 1:
		return "subnet"
	case t <= 15:
		return "site"
	case t <= 31:
		return "region"
	case t <= 47:
		return "national"
	case t <= 63:
		return "continental"
	case t <= 127:
		return "intercontinental"
	default:
		return "unrestricted"
	}
}

// TTLDistribution is a workload distribution over session TTLs: the
// empirical form used in the paper's §2.2 simulations, where each listed
// value is equally likely (repetition expresses weight).
type TTLDistribution struct {
	Name   string
	Values []TTL
}

// The four TTL workload distributions of the paper's Figure 5 simulations
// (§2.2). ds1 is flat over the common scope values; ds2–ds4 progressively
// weight local (low-TTL) sessions more heavily, illustrating how local
// scoping aids scaling even as it starves the informed mechanisms.
func DS1() TTLDistribution {
	return TTLDistribution{Name: "ds1", Values: []TTL{1, 15, 31, 47, 63, 127, 191}}
}

func DS2() TTLDistribution {
	return TTLDistribution{Name: "ds2", Values: []TTL{1, 1, 15, 15, 31, 47, 63, 127, 191}}
}

func DS3() TTLDistribution {
	return TTLDistribution{Name: "ds3", Values: []TTL{
		1, 1, 1, 1, 15, 15, 15, 15, 31, 47, 63, 127, 191}}
}

func DS4() TTLDistribution {
	return TTLDistribution{Name: "ds4", Values: []TTL{
		1, 1, 1, 1, 1, 1, 1, 1,
		15, 15, 15, 15, 15, 15,
		31, 31, 47, 47, 63, 63, 127, 191}}
}

// Distributions returns all four workload distributions in order.
func Distributions() []TTLDistribution {
	return []TTLDistribution{DS1(), DS2(), DS3(), DS4()}
}

// Sample draws one TTL. The caller supplies the uniform variate source as a
// function returning an int in [0, n) to avoid a dependency cycle with the
// stats package.
func (d TTLDistribution) Sample(intn func(n int) int) TTL {
	if len(d.Values) == 0 {
		panic("mcast: sampling from empty TTL distribution")
	}
	return d.Values[intn(len(d.Values))]
}

// Support returns the distinct TTL values in ascending order.
func (d TTLDistribution) Support() []TTL {
	seen := map[TTL]bool{}
	var out []TTL
	for _, v := range d.Values {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
