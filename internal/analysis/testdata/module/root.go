// Package root tops a fixture module tree for the loader's package walk:
// a and a/b are its packages; onlytests holds tests only, and testdata/,
// benchmark/ and .hidden/ are skipped.
package root
