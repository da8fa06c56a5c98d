package stats

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h IntHistogram
	if h.Total() != 0 || h.Max() != -1 || h.Min() != -1 || h.Mode() != -1 {
		t.Fatal("empty histogram not empty")
	}
	for _, v := range []int{3, 3, 3, 7, 1} {
		h.Add(v)
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Count(3) != 3 || h.Count(7) != 1 || h.Count(2) != 0 || h.Count(-1) != 0 || h.Count(99) != 0 {
		t.Fatal("bad counts")
	}
	if h.Mode() != 3 {
		t.Fatalf("Mode = %d", h.Mode())
	}
	if h.Min() != 1 || h.Max() != 7 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	wantMean := (3.0*3 + 7 + 1) / 5
	if math.Abs(h.Mean()-wantMean) > 1e-12 {
		t.Fatalf("Mean = %v want %v", h.Mean(), wantMean)
	}
}

func TestHistogramAddN(t *testing.T) {
	var h IntHistogram
	h.AddN(5, 10)
	h.AddN(2, 0)
	h.AddN(2, -3)
	if h.Total() != 10 || h.Count(5) != 10 || h.Count(2) != 0 {
		t.Fatalf("AddN wrong: %s", h.String())
	}
}

func TestHistogramAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var h IntHistogram
	h.Add(-1)
}

func TestHistogramNormalized(t *testing.T) {
	var h IntHistogram
	h.AddN(0, 1)
	h.AddN(2, 3)
	got := h.Normalized()
	want := []BinFraction{{Value: 0, Fraction: 0.25}, {Value: 2, Fraction: 0.75}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Normalized = %v", got)
	}
	var sum float64
	for _, b := range got {
		sum += b.Fraction
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestHistogramNormalizedSumsToOneProperty(t *testing.T) {
	err := quick.Check(func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var h IntHistogram
		for _, v := range vals {
			h.Add(int(v))
		}
		var sum float64
		for _, b := range h.Normalized() {
			sum += b.Fraction
		}
		return math.Abs(sum-1) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMedianFilter(t *testing.T) {
	xs := []float64{1, 100, 3, 4, 5}
	got := MedianFilter(xs, 3)
	want := []float64{1, 3, 4, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MedianFilter = %v want %v", got, want)
	}
	// Window 1 is the identity.
	if !reflect.DeepEqual(MedianFilter(xs, 1), xs) {
		t.Fatal("window-1 filter should be identity")
	}
	// Original untouched.
	if xs[1] != 100 {
		t.Fatal("input modified")
	}
	if out := MedianFilter(nil, 3); len(out) != 0 {
		t.Fatal("nil input should give empty output")
	}
}

func TestMedianFilterRemovesSpikesProperty(t *testing.T) {
	err := quick.Check(func(raw []float64, winRaw uint8) bool {
		win := int(winRaw%5)*2 + 1 // odd window 1..9
		out := MedianFilter(raw, win)
		if len(out) != len(raw) {
			return false
		}
		// Every output value must be one of the input values (a median of
		// a multiset is a member of it, given replicated edges).
		for _, v := range out {
			found := false
			for _, x := range raw {
				if x == v || (math.IsNaN(x) && math.IsNaN(v)) {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMedianFilterEvenWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MedianFilter([]float64{1, 2}, 2)
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.StdErr() != 0 {
		t.Fatal("zero Summary should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Population stddev of this classic set is 2; sample variance = 32/7.
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", s.Variance())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2}
	if q := Quantile(xs, 0.5); q != 2 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 3 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.25); math.Abs(q-1.5) > 1e-12 {
		t.Fatalf("q.25 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	// Input order preserved.
	if xs[0] != 3 {
		t.Fatal("input modified")
	}
}
