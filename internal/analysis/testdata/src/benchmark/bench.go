// Package main is the unused fixture's stand-in for benchmark/: its
// references pin names, and keep none alive.
package main

import fixture "fixture/unused"

func main() {
	fixture.Pinned()
	fixture.PinnedElsewhere()
}
