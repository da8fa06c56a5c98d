package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerLawFitExact(t *testing.T) {
	// y = 3·x^0.5
	xs := []float64{1, 4, 9, 16, 100}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Sqrt(x)
	}
	b, logC, err := PowerLawFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.5) > 1e-9 {
		t.Fatalf("exponent = %v", b)
	}
	if math.Abs(math.Exp(logC)-3) > 1e-9 {
		t.Fatalf("coefficient = %v", math.Exp(logC))
	}
}

func TestPowerLawFitLinear(t *testing.T) {
	xs := []float64{10, 20, 40, 80}
	ys := []float64{5, 10, 20, 40}
	b, _, err := PowerLawFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-1) > 1e-9 {
		t.Fatalf("exponent = %v", b)
	}
}

func TestPowerLawFitErrors(t *testing.T) {
	if _, _, err := PowerLawFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := PowerLawFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, _, err := PowerLawFit([]float64{1, -2}, []float64{1, 1}); err == nil {
		t.Fatal("negative x accepted")
	}
	if _, _, err := PowerLawFit([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Fatal("zero y accepted")
	}
	if _, _, err := PowerLawFit([]float64{5, 5, 5}, []float64{1, 2, 3}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestPowerLawFitRecoversExponentProperty(t *testing.T) {
	err := quick.Check(func(bRaw int8, cRaw uint8) bool {
		b := float64(bRaw) / 64.0 // exponents in [-2, 2)
		c := float64(cRaw)/32.0 + 0.1
		xs := []float64{2, 5, 17, 120, 990}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = c * math.Pow(x, b)
		}
		gotB, gotLogC, err := PowerLawFit(xs, ys)
		if err != nil {
			return false
		}
		return math.Abs(gotB-b) < 1e-6 && math.Abs(math.Exp(gotLogC)-c) < 1e-6*c+1e-9
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
