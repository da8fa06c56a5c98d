package mcast

import "fmt"

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// String renders the space as "base+size".
func (s AddrSpace) String() string {
	return fmt.Sprintf("%s+%d", s.Base, s.Size)
}
