package stats

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// AddN records n observations of v.
func (h *IntHistogram) AddN(v int, n int64) {
	if n <= 0 {
		return
	}
	h.Add(v)
	h.counts[v] += n - 1
	h.total += n - 1
}

// Total returns the number of observations recorded.
func (h *IntHistogram) Total() int64 { return h.total }

// Min returns the smallest value observed, or -1 if empty.
func (h *IntHistogram) Min() int {
	for v := 0; v < len(h.counts); v++ {
		if h.counts[v] > 0 {
			return v
		}
	}
	return -1
}

// Min returns the smallest observation (0 when empty).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}
