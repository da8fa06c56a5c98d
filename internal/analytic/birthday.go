package analytic

import "math"

// BirthdayClashProbability returns the probability that at least one pair
// of the k addresses drawn uniformly (with replacement) from a space of
// size n collide — the curve of Figure 4 (n = 10000 there). It is the
// classic birthday problem: p = 1 − ∏_{j=0}^{k−1} (1 − j/n).
func BirthdayClashProbability(n, k int) float64 {
	if n <= 0 {
		return 1
	}
	if k <= 1 {
		return 0
	}
	if k > n {
		return 1 // pigeonhole
	}
	// Work with log of the no-clash probability for stability.
	logNoClash := 0.0
	for j := 1; j < k; j++ {
		logNoClash += math.Log1p(-float64(j) / float64(n))
	}
	return -math.Expm1(logNoClash)
}

// BirthdayMedian returns the smallest k whose clash probability reaches
// 0.5 for a space of n addresses: the "≈√n allocations before an expected
// clash" rule the paper cites for purely random allocation.
func BirthdayMedian(n int) int {
	lo, hi := 1, n+1
	for lo < hi {
		mid := (lo + hi) / 2
		if BirthdayClashProbability(n, mid) >= 0.5 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
