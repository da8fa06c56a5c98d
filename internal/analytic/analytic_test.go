package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"sessiondir/internal/stats"
)

func TestLogChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 3, 120}, {52, 5, 2598960},
	}
	for _, c := range cases {
		got := math.Exp(logChoose(c.n, c.k))
		if math.Abs(got-c.want)/c.want > 1e-9 {
			t.Errorf("C(%d,%d) = %v want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(logChoose(5, 6), -1) || !math.IsInf(logChoose(5, -1), -1) {
		t.Error("out-of-range k should give -Inf")
	}
}

func TestLogChooseSymmetryProperty(t *testing.T) {
	err := quick.Check(func(nRaw, kRaw uint8) bool {
		n := int(nRaw)
		k := int(kRaw) % (n + 1)
		a, b := logChoose(n, k), logChoose(n, n-k)
		return math.Abs(a-b) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLog1mExp(t *testing.T) {
	for _, x := range []float64{-0.001, -0.1, -1, -10, -100} {
		want := math.Log(1 - math.Exp(x))
		got := log1mExp(x)
		if math.Abs(got-want) > 1e-9*math.Abs(want)+1e-12 {
			t.Errorf("log1mExp(%v) = %v want %v", x, got, want)
		}
	}
	if !math.IsInf(log1mExp(0), -1) {
		t.Error("log1mExp(0) should be -Inf")
	}
}

func TestLogSumExp(t *testing.T) {
	got := logSumExp(math.Log(3), math.Log(4))
	if math.Abs(got-math.Log(7)) > 1e-12 {
		t.Fatalf("logSumExp = %v", got)
	}
	if got := logSumExp(math.Inf(-1), math.Log(2)); math.Abs(got-math.Log(2)) > 1e-12 {
		t.Fatalf("logSumExp with -Inf = %v", got)
	}
}

func TestBirthdayKnownValues(t *testing.T) {
	// Classic: 23 people, 365 days → p ≈ 0.5073.
	p := BirthdayClashProbability(365, 23)
	if math.Abs(p-0.5073) > 0.0005 {
		t.Fatalf("p(365,23) = %v", p)
	}
	if BirthdayClashProbability(100, 0) != 0 || BirthdayClashProbability(100, 1) != 0 {
		t.Fatal("k<=1 should have zero clash probability")
	}
	if BirthdayClashProbability(10, 11) != 1 {
		t.Fatal("pigeonhole should give 1")
	}
}

func TestBirthdayMonotoneProperty(t *testing.T) {
	err := quick.Check(func(nRaw uint16, kRaw uint8) bool {
		n := int(nRaw%5000) + 10
		k := int(kRaw)
		return BirthdayClashProbability(n, k) <= BirthdayClashProbability(n, k+1)+1e-15
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBirthdayMedianSqrtRule(t *testing.T) {
	// Median ≈ 1.1774·√n.
	for _, n := range []int{1000, 10000, 100000} {
		m := BirthdayMedian(n)
		want := 1.1774 * math.Sqrt(float64(n))
		if math.Abs(float64(m)-want) > want*0.05 {
			t.Errorf("median(%d) = %d want ~%.0f", n, m, want)
		}
	}
}

func TestBirthdayMatchesMonteCarlo(t *testing.T) {
	// Cross-check the closed form against simulation (Figure 4 overlay).
	rng := stats.NewRNG(77)
	const n, k, trials = 10000, 120, 4000
	clashes := 0
	seen := make(map[int]bool, k)
	for tr := 0; tr < trials; tr++ {
		clear(seen)
		for j := 0; j < k; j++ {
			a := rng.IntN(n)
			if seen[a] {
				clashes++
				break
			}
			seen[a] = true
		}
	}
	got := float64(clashes) / trials
	want := BirthdayClashProbability(n, k)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("MC %v vs closed form %v", got, want)
	}
}

func TestClashFreeProbabilityEdges(t *testing.T) {
	if ClashFreeProbability(100, 0, 0.001) != 1 {
		t.Fatal("m=0 should be clash-free")
	}
	if ClashFreeProbability(100, 100, 0.001) != 0 {
		t.Fatal("full partition should clash")
	}
	// Zero invisible fraction → informed allocation never clashes.
	if p := ClashFreeProbability(100, 99, 0); p != 1 {
		t.Fatalf("i=0 p = %v want 1", p)
	}
}

func TestClashFreeProbabilityMonotoneInM(t *testing.T) {
	prev := 1.0
	for m := 0; m < 1000; m += 10 {
		p := ClashFreeProbability(1000, m, 0.001)
		if p > prev+1e-12 {
			t.Fatalf("p not monotone at m=%d: %v > %v", m, p, prev)
		}
		prev = p
	}
}

func TestAllocationsAtHalfPaperAnchor(t *testing.T) {
	// §2.3: space 65536 into 8 partitions of 8192 each, i = 0.001m →
	// "approximately 16496 concurrent sessions as seen from each site",
	// i.e. ~2062 per partition.
	m := AllocationsAtHalf(8192, 0.001)
	total := 8 * m
	if total < 15000 || total > 18000 {
		t.Fatalf("8 × m = %d, paper says ≈16496", total)
	}
}

func TestAllocationsAtHalfOrdering(t *testing.T) {
	// Smaller invisible fractions pack better (Figure 6 ordering).
	n := 100000
	prev := -1
	for _, f := range []float64{0.01, 0.001, 0.0001, 0.00001} {
		m := AllocationsAtHalf(n, f)
		if m <= prev {
			t.Fatalf("i=%v gives %d, not better than %d", f, m, prev)
		}
		prev = m
	}
	// Bounds of Figure 6: between √n and n.
	m := AllocationsAtHalf(n, 0.001)
	if float64(m) < math.Sqrt(float64(n)) || m > n {
		t.Fatalf("m = %d outside (√n, n)", m)
	}
}

func TestRequiredInvisibleFractionInvertsEq1(t *testing.T) {
	// Round trip: for the m at clash-prob 0.5 under fraction f, the
	// required fraction must come back ≈ f.
	for _, f := range []float64{0.01, 0.001, 0.0001} {
		m := AllocationsAtHalf(8192, f)
		got := RequiredInvisibleFraction(8192, m)
		if got < f*0.9 || got > f*1.3 {
			t.Fatalf("f=%v: m=%d → required %v", f, m, got)
		}
	}
	// Edges.
	if RequiredInvisibleFraction(100, 0) != 1 {
		t.Fatal("m=0 should tolerate anything")
	}
	if RequiredInvisibleFraction(100, 100) != 0 {
		t.Fatal("full partition should require 0")
	}
	// Near-full packing is achievable only with a near-perfect
	// announcement mechanism: the tolerated fraction must be minuscule.
	if got := RequiredInvisibleFraction(100, 99); got <= 0 || got > 0.001 {
		t.Fatalf("m≈n: %v", got)
	}
}

// TestEq1MatchesMonteCarlo cross-validates the closed form against a
// direct simulation of the §2.3 model: each of m allocations picks
// uniformly among the n−m+i addresses it believes free, of which i are
// invisibly in use; a pick landing on an invisible address is a clash.
func TestEq1MatchesMonteCarlo(t *testing.T) {
	rng := stats.NewRNG(91)
	const n, m = 2000, 800
	const frac = 0.005 // i = 4 invisible sessions
	const trials = 4000
	i := frac * m
	pClash := i / (float64(n-m) + i)
	clashFree := 0
	for tr := 0; tr < trials; tr++ {
		ok := true
		for k := 0; k < m; k++ {
			if rng.Bool(pClash) {
				ok = false
				break
			}
		}
		if ok {
			clashFree++
		}
	}
	got := float64(clashFree) / trials
	want := ClashFreeProbability(n, m, frac)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("MC %v vs Equation 1 %v", got, want)
	}
}

func TestMeanDiscoveryDelayPaperExample(t *testing.T) {
	// (0.98·0.2)+(0.02·600) = 12.196 ≈ 12 s.
	got := MeanDiscoveryDelay(0.02, 0.2, 600)
	if math.Abs(got-12.196) > 1e-9 {
		t.Fatalf("delay = %v", got)
	}
	// §2.3's 0.1% invisible: 12 s over a 4 h advertised life ≈ 0.00083.
	f := InvisibleFraction(12, 4*3600)
	if f < 0.0005 || f > 0.0015 {
		t.Fatalf("invisible fraction = %v", f)
	}
	if InvisibleFraction(10, 0) != 1 {
		t.Fatal("zero lifetime should clamp to 1")
	}
	if InvisibleFraction(1e9, 10) != 1 {
		t.Fatal("huge delay should clamp to 1")
	}
}

func TestPartitionCountFigure11(t *testing.T) {
	// The paper: margin of safety 2 ⇒ 55 partitions.
	if got := PartitionCount(2); got != 55 {
		t.Fatalf("PartitionCount(2) = %d, paper says 55", got)
	}
	lows := PartitionLowerBounds(2)
	if lows[0] != 0 {
		t.Fatalf("first partition starts at %d", lows[0])
	}
	for i := 1; i < len(lows); i++ {
		if lows[i] <= lows[i-1] {
			t.Fatalf("bounds not ascending: %v", lows)
		}
	}
	if lows[len(lows)-1] > 255 {
		t.Fatalf("last bound %d > 255", lows[len(lows)-1])
	}
	// Low TTLs get one partition per TTL value (§2.4.1).
	for i := 0; i < 10; i++ {
		if lows[i] != i {
			t.Fatalf("low-TTL partitions not unit-width: %v", lows[:12])
		}
	}
	// The top partition spans less than the DVMRP infinity of 32.
	topSpan := 256 - lows[len(lows)-1]
	if topSpan >= 32 {
		t.Fatalf("top partition spans %d ≥ 32", topSpan)
	}
	// Larger margins mean more partitions.
	if !(PartitionCount(1) < PartitionCount(2) && PartitionCount(2) < PartitionCount(4)) {
		t.Fatal("partition count should grow with margin")
	}
}

func TestUniformRespondersSmall(t *testing.T) {
	// d=1: everyone responds.
	if got := UniformResponders(7, 1); got != 7 {
		t.Fatalf("d=1: %v", got)
	}
	// n=1: exactly one response whatever d is.
	for _, d := range []int{1, 2, 10, 100} {
		if got := UniformResponders(1, d); math.Abs(got-1) > 1e-9 {
			t.Fatalf("n=1,d=%d: %v", d, got)
		}
	}
	// n=2, d=2: P(same bucket)=1/2 → E = 2·1/2 + 1·1/2 = 1.5.
	if got := UniformResponders(2, 2); math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("n=2,d=2: %v", got)
	}
	if UniformResponders(0, 5) != 0 {
		t.Fatal("n=0 should be 0")
	}
}

// exhaustive reference for small n, d by direct enumeration.
func bruteUniform(n, d int) float64 {
	assign := make([]int, n)
	total := 0.0
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			first := d + 1
			for _, b := range assign {
				if b < first {
					first = b
				}
			}
			k := 0
			for _, b := range assign {
				if b == first {
					k++
				}
			}
			total += float64(k)
			count++
			return
		}
		for b := 1; b <= d; b++ {
			assign[i] = b
			rec(i + 1)
		}
	}
	rec(0)
	return total / float64(count)
}

func TestUniformRespondersMatchesBruteForce(t *testing.T) {
	for _, c := range []struct{ n, d int }{{2, 3}, {3, 2}, {3, 4}, {4, 3}, {5, 2}} {
		want := bruteUniform(c.n, c.d)
		got := UniformResponders(c.n, c.d)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Uniform(%d,%d) = %v want %v", c.n, c.d, got, want)
		}
	}
}

func bruteExp(n, d int) float64 {
	// Enumerate assignments over sub-buckets 1..2^d−1; bucket of sub-bucket
	// s is floor(log2(s))+1.
	S := 1<<d - 1
	bucketOf := func(s int) int {
		b := 0
		for s > 0 {
			s >>= 1
			b++
		}
		return b
	}
	assign := make([]int, n)
	total := 0.0
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			first := d + 1
			for _, s := range assign {
				if b := bucketOf(s); b < first {
					first = b
				}
			}
			k := 0
			for _, s := range assign {
				if bucketOf(s) == first {
					k++
				}
			}
			total += float64(k)
			count++
			return
		}
		for s := 1; s <= S; s++ {
			assign[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return total / float64(count)
}

func TestExpRespondersMatchesBruteForce(t *testing.T) {
	for _, c := range []struct{ n, d int }{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {4, 2}} {
		want := bruteExp(c.n, c.d)
		got := ExpResponders(c.n, c.d)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Exp(%d,%d) = %v want %v", c.n, c.d, got, want)
		}
	}
}

func TestExpRespondersLimit(t *testing.T) {
	// Paper: "the limit in this case is a mean of 1.442698 responses".
	for _, n := range []int{100, 1000, 10000} {
		got := ExpResponders(n, 64)
		if math.Abs(got-ExpRespondersLimit) > 0.02 {
			t.Errorf("Exp(%d,64) = %v want ≈%v", n, got, ExpRespondersLimit)
		}
	}
}

func TestExpRespondersNearlyFlatInN(t *testing.T) {
	// Figure 18's key property: group size barely moves the expectation.
	e200 := ExpResponders(200, 32)
	e25600 := ExpResponders(25600, 32)
	if math.Abs(e200-e25600) > 0.5 {
		t.Fatalf("exp distribution too sensitive to n: %v vs %v", e200, e25600)
	}
}

func TestUniformRespondersScalesWithN(t *testing.T) {
	// Figure 14's key property: with fixed d, responses grow ~linearly in n.
	e1 := UniformResponders(800, 16)
	e2 := UniformResponders(12800, 16)
	if e2 < 8*e1 {
		t.Fatalf("uniform distribution should scale with n: %v vs %v", e1, e2)
	}
}

func TestUniformRespondersDecreasingInD(t *testing.T) {
	prev := math.Inf(1)
	for _, d := range []int{1, 2, 4, 8, 16, 32, 64} {
		e := UniformResponders(1000, d)
		if e > prev+1e-9 {
			t.Fatalf("E not decreasing in d at %d: %v > %v", d, e, prev)
		}
		prev = e
	}
}

func TestResponderSurface(t *testing.T) {
	pts := ResponderSurface([]float64{800, 3200}, []int{200, 800}, 200, "uniform")
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.Expected <= 0 {
			t.Fatalf("non-positive expectation: %+v", p)
		}
	}
	ptsExp := ResponderSurface([]float64{800, 3200}, []int{200, 800}, 200, "exp")
	// Exponential should give strictly fewer expected responses at the
	// largest group / window combination.
	if ptsExp[3].Expected >= pts[3].Expected {
		t.Fatalf("exp (%v) not better than uniform (%v)", ptsExp[3].Expected, pts[3].Expected)
	}
}
