package stats

import "math"

// WelchT computes Welch's t statistic and approximate degrees of freedom
// for two summaries — the unequal-variance t-test the experiment suite
// uses to check that an algorithm comparison is signal, not noise.
// Returns NaN statistics when either sample is too small.
func WelchT(a, b *Summary) (t float64, df float64) {
	if a.N() < 2 || b.N() < 2 {
		return math.NaN(), math.NaN()
	}
	va := a.Variance() / float64(a.N())
	vb := b.Variance() / float64(b.N())
	if va+vb == 0 {
		if a.Mean() == b.Mean() {
			return 0, float64(a.N() + b.N() - 2)
		}
		return math.Inf(1), float64(a.N() + b.N() - 2)
	}
	t = (a.Mean() - b.Mean()) / math.Sqrt(va+vb)
	df = (va + vb) * (va + vb) /
		(va*va/float64(a.N()-1) + vb*vb/float64(b.N()-1))
	return t, df
}

// SignificantlyGreater reports whether a's mean exceeds b's with |t| above
// the ~99% two-sided critical value for the Welch degrees of freedom
// (approximated: 2.58 for large df, inflated for small samples). It is a
// pragmatic gate for test assertions, not a full p-value machinery.
func SignificantlyGreater(a, b *Summary) bool { //mclint:unused sim's TestIPR7BeatsIRSignificantly compares Fig 5's curves with it
	t, df := WelchT(a, b)
	if math.IsNaN(t) {
		return false
	}
	crit := 2.58
	if df < 30 {
		crit = 2.75
	}
	if df < 10 {
		crit = 3.25
	}
	return t > crit
}
