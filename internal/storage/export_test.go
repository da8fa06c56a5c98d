package storage

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// Gen returns the current durable generation.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// CrashModes lists every mode, for crash-point enumeration sweeps.
var CrashModes = []CrashMode{CrashLoseUnsynced, CrashKeepUnsynced, CrashTornTail, CrashKeepNamespace}
