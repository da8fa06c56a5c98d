package transport

import "time"

// Clock abstracts the wall clock so time-dependent transport components
// (and their tests) can run on synthetic time. Production code uses
// SystemClock; tests substitute a hand-advanced fake instead of sleeping.
// This is the seam that keeps the package under mclint's detrand analyzer:
// SystemClock.Now is the one sanctioned wall-clock read.
type Clock interface {
	Now() time.Time
}

// SystemClock reads the real wall clock.
type SystemClock struct{}

// Now implements Clock.
func (SystemClock) Now() time.Time {
	return time.Now() //mclint:detrand SystemClock is the deliberate production wall-clock boundary; everything else takes an injected Clock
}
