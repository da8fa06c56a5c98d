package analytic

import "math"

// First-response delay models, the companions to Figures 16 and 19: the
// responder-count bounds say how many reports arrive; these say how soon
// the first one does. Both are needed to pick D2 — "equally important is
// that the delay before the first response is not excessive" (§3.1).

// FirstResponseUniform returns the expected time until the *first* of n
// responders transmits, when each delays uniformly over [d1, d2]
// (milliseconds): d1 + (d2−d1)/(n+1), the expectation of the minimum of n
// uniform variates. Network propagation to and from the responders adds on
// top; callers typically add one RTT.
func FirstResponseUniform(n int, d1, d2 float64) float64 { //mclint:unused reference formula for Fig 15/16's first-response delay, checked by its tests
	if n <= 0 {
		return math.Inf(1)
	}
	if d2 < d1 {
		d2 = d1
	}
	return d1 + (d2-d1)/float64(n+1)
}

// FirstResponseExp returns the expected time until the first of n
// responders transmits under the §3.1 exponential distribution with
// maximum RTT r over [d1, d2]. Computed by numeric integration of
// E[min] = ∫ (1−F(t))^n dt with F(t) = (2^(t/r) − 1)/(2^d − 1): there is
// no tidy closed form, but the integrand is smooth and the window short.
func FirstResponseExp(n int, d1, d2, r float64) float64 { //mclint:unused reference formula for Fig 15/16's first-response delay, checked by its tests
	if n <= 0 {
		return math.Inf(1)
	}
	span := d2 - d1
	if span <= 0 || r <= 0 {
		return d1
	}
	d := span / r
	// log2 of the sub-bucket count; F(t) computed stably in that domain.
	const steps = 4096
	h := span / steps
	total := 0.0
	for i := 0; i <= steps; i++ {
		t := float64(i) * h
		// survival = (1 − F(t))^n, F(t) = (2^(t/r)−1)/(2^d −1).
		// In logs: log(1−F) = log(2^d − 2^(t/r)) − log(2^d − 1).
		x := t / r
		var logNum float64
		if x >= d {
			logNum = math.Inf(-1)
		} else {
			logNum = d*math.Ln2 + log1mExp((x-d)*math.Ln2)
		}
		logDen := d*math.Ln2 + log1mExp(-d*math.Ln2)
		logSurv := float64(n) * (logNum - logDen)
		weight := 1.0
		if i == 0 || i == steps {
			weight = 0.5 // trapezoid ends
		}
		total += weight * math.Exp(logSurv)
	}
	return d1 + total*h
}
