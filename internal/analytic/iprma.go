package analytic

import (
	"fmt"
	"math"
)

// Equation 1 of the paper (§2.3). With n addresses available in a
// partition, m currently allocated, and i of those *invisible* to the
// allocator (announcements lost or still propagating), the probability
// that one new allocation avoids a clash is
//
//	c(m) = (n − m) / (n + i − m)
//
// and the probability that a whole population of m sessions was allocated
// without any clash during a mean session lifetime is
//
//	p(m) = ((n − m) / (n + i − m))^m .

// ClashFreeProbability returns p(m) for a partition of n addresses with m
// allocated and invisibleFrac·m invisible (Equation 1). Returns 0 when the
// partition is overfull.
func ClashFreeProbability(n int, m int, invisibleFrac float64) float64 {
	if m <= 0 {
		return 1
	}
	if m >= n {
		return 0
	}
	i := invisibleFrac * float64(m)
	num := float64(n - m)
	den := float64(n) + i - float64(m)
	if den <= 0 {
		return 0
	}
	return math.Exp(float64(m) * (math.Log(num) - math.Log(den)))
}

// AllocationsAtHalf returns the largest m such that p(m) >= 0.5 — the
// y-axis of Figure 6 ("addresses allocated in one IPRMA partition such
// that the probability of a clash is 0.5") for a partition of n addresses
// and the given invisible fraction. p(m) is monotone decreasing in m, so a
// binary search suffices.
func AllocationsAtHalf(n int, invisibleFrac float64) int {
	if n <= 1 {
		return 0
	}
	lo, hi := 0, n // invariant: p(lo) >= 0.5 > p(hi)
	if ClashFreeProbability(n, hi, invisibleFrac) >= 0.5 {
		return hi
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if ClashFreeProbability(n, mid, invisibleFrac) >= 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Figure6InvisibleFractions are the i values the paper plots: i = 0.01m,
// 0.001m, 0.0001m, 0.00001m.
func Figure6InvisibleFractions() []float64 {
	return []float64{0.01, 0.001, 0.0001, 0.00001}
}

// RequiredInvisibleFraction inverts the Figure-6 relation: the largest
// invisible fraction i (as a fraction of m) under which m sessions still
// fit a partition of n addresses at ≤50% clash probability. The §4 design
// question — "how good must the announcement mechanism be?" — answered
// directly: pick the target packing, read off the announcement budget.
func RequiredInvisibleFraction(n, m int) float64 {
	if m <= 0 {
		return 1
	}
	if m >= n {
		return 0
	}
	lo, hi := 0.0, 1.0 // p(m) decreasing in i: p(lo) >= 0.5 >= p(hi) hoped
	if ClashFreeProbability(n, m, 0) < 0.5 {
		return 0 // not achievable even with perfect announcements
	}
	if ClashFreeProbability(n, m, 1) >= 0.5 {
		return 1
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if ClashFreeProbability(n, m, mid) >= 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// MeanDiscoveryDelay returns the §2.3 back-of-envelope mean end-to-end
// announcement discovery delay: with per-announcement loss rate p, network
// delay d, and re-announcement interval T, delay ≈ (1−p)·d + p·T (the
// paper's (0.98·0.2)+(0.02·600) = 12 s example, with the second-loss term
// dropped as the paper does).
func MeanDiscoveryDelay(loss float64, networkDelay, reannounceInterval float64) float64 { //mclint:unused §2.3's reference formula; the root back-off ablation benchmark reads it
	return (1-loss)*networkDelay + loss*reannounceInterval
}

// InvisibleFraction converts a mean discovery delay and a mean advertised
// session lifetime into the fraction of sessions invisible at any moment
// (the paper's "approximately 0.1 % of sessions currently advertised are
// not visible": 12 s / (4 h·3600)).
func InvisibleFraction(meanDiscoveryDelay, meanAdvertisedLifetime float64) float64 {
	if meanAdvertisedLifetime <= 0 {
		return 1
	}
	f := meanDiscoveryDelay / meanAdvertisedLifetime
	if f > 1 {
		return 1
	}
	return f
}

// PartitionCount returns the number of partitions the §2.4.1 rule yields
// for the whole TTL range 0..255 with margin of safety m: a partition with
// lowest TTL t spans n(t) = ceil(32·t / (255·m)) TTL values (minimum 1).
// The paper reports 55 partitions for m = 2 (Figure 11, whose TTL axis
// starts at 0).
func PartitionCount(margin int) int {
	return len(PartitionLowerBounds(margin))
}

// PartitionLowerBounds returns the ascending list of lowest TTLs of each
// partition under the §2.4.1 rule, starting at TTL 0.
func PartitionLowerBounds(margin int) []int {
	if margin < 1 {
		panic(fmt.Sprintf("analytic: margin %d < 1", margin))
	}
	var lows []int
	t := 0
	for t <= 255 {
		lows = append(lows, t)
		span := int(math.Ceil(32 * float64(t) / (255 * float64(margin))))
		if span < 1 {
			span = 1
		}
		t += span
	}
	return lows
}
