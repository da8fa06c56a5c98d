// Package clash implements the paper's §3 clash handling: the randomised
// response-delay distributions that prevent response implosion, the
// suppression rule, and the three-phase clash detection and correction
// protocol for session directories.
package clash

import (
	"fmt"
	"math"

	"sessiondir/internal/stats"
)

// DelayDist draws the delay a potential responder waits before reporting a
// clash, giving others the chance to respond first (suppression).
type DelayDist interface {
	// Sample returns a delay in milliseconds in [D1, D2].
	Sample(rng *stats.RNG) float64
	// Name identifies the distribution in experiment output.
	Name() string
	// Window returns the [D1, D2] bounds in milliseconds.
	Window() (d1, d2 float64)
}

// UniformDelay draws uniformly from [D1, D2] — the SRM-style baseline the
// paper shows needs D2 to grow with the receiver count (Figures 14–16).
type UniformDelay struct {
	D1, D2 float64 // milliseconds
}

// NewUniformDelay returns a uniform delay distribution over [d1, d2] ms.
func NewUniformDelay(d1, d2 float64) UniformDelay {
	if d1 < 0 || d2 < d1 {
		panic(fmt.Sprintf("clash: invalid uniform window [%v, %v]", d1, d2))
	}
	return UniformDelay{D1: d1, D2: d2}
}

// Sample implements DelayDist.
func (u UniformDelay) Sample(rng *stats.RNG) float64 {
	return u.D1 + rng.Float64()*(u.D2-u.D1)
}

// Name implements DelayDist.
func (u UniformDelay) Name() string { return "uniform" }

// Window implements DelayDist.
func (u UniformDelay) Window() (float64, float64) { return u.D1, u.D2 }

// ExponentialDelay implements the paper's §3.1 distribution: the delay is
//
//	D = D1 + r · log2((2^d − 1)·x + 1),   d = (D2 − D1)/r
//
// with x uniform in [0,1) and r the assumed maximum RTT. Early delays are
// exponentially unlikely, so the expected number of responses stays near
// 1/ln 2 regardless of group size (Figure 18), at the cost of a worst-case
// delay of D2.
type ExponentialDelay struct {
	D1, D2 float64 // milliseconds
	RTT    float64 // assumed maximum round trip time r, milliseconds
}

// NewExponentialDelay returns the paper's exponential delay distribution.
func NewExponentialDelay(d1, d2, rtt float64) ExponentialDelay {
	if d1 < 0 || d2 < d1 || rtt <= 0 {
		panic(fmt.Sprintf("clash: invalid exponential parameters [%v, %v] rtt %v", d1, d2, rtt))
	}
	return ExponentialDelay{D1: d1, D2: d2, RTT: rtt}
}

// Sample implements DelayDist.
func (e ExponentialDelay) Sample(rng *stats.RNG) float64 {
	d := (e.D2 - e.D1) / e.RTT
	if d <= 0 {
		return e.D1
	}
	x := rng.Float64()
	// log2((2^d − 1)·x + 1), computed stably for large d where 2^d
	// overflows float64.
	var val float64
	t := d + math.Log2(x) // log2(x·2^d); -Inf when x == 0
	switch {
	case x == 0:
		val = 0
	case t > 50:
		val = t // the "+1 − x" terms are negligible beyond 2^50
	default:
		val = math.Log2(math.Exp2(t) - x + 1)
	}
	return e.D1 + e.RTT*val
}

// Name implements DelayDist.
func (e ExponentialDelay) Name() string { return "exponential" }

// Window implements DelayDist.
func (e ExponentialDelay) Window() (float64, float64) { return e.D1, e.D2 }
