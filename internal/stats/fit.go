package stats

import (
	"fmt"
	"math"
)

// PowerLawFit fits y ≈ c·x^b by least squares in log–log space and returns
// the exponent b and log-intercept log(c). The paper's headline scaling
// claims are exponent claims — random allocation clashes after O(√n)
// (b ≈ 0.5), perfectly partitioned allocation after O(n) (b ≈ 1) — so the
// tests assert fitted exponents rather than absolute values.
//
// All inputs must be positive; it returns an error otherwise or when
// fewer than two distinct x values are supplied.
func PowerLawFit(xs, ys []float64) (exponent, logCoeff float64, err error) { //mclint:unused sim's TestFig5ScalingExponents fits Fig 5's growth exponents with it
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("stats: PowerLawFit length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("stats: PowerLawFit needs at least 2 points")
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, fmt.Errorf("stats: PowerLawFit needs positive values, got (%v, %v)", xs[i], ys[i])
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den <= 0 {
		return 0, 0, fmt.Errorf("stats: PowerLawFit needs at least 2 distinct x values")
	}
	exponent = (n*sxy - sx*sy) / den
	logCoeff = (sy - exponent*sx) / n
	return exponent, logCoeff, nil
}
