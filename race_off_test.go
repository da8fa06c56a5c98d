//go:build !race

package sessiondir

const raceEnabled = false
