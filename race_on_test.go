//go:build race

package sessiondir

// raceEnabled loosens allocation pins that a sync.Pool carries: under the
// race detector the pool drops some of what it is given.
const raceEnabled = true
