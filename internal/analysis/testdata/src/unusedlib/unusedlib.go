// Package unusedlib is a fixture for the unused analyzer: a library no
// package of the run imports is reported once, at its package clause,
// and not name by name.
package unusedlib // want `package unusedlib is unused: no non-test package imports it`

// Exported has no caller either.
func Exported() {}
