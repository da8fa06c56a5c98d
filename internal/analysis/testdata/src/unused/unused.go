// Package main is a fixture for the unused analyzer: what no non-test
// code references is reported, and each way a name stays alive — a
// call, an interface conversion, fmt, an unkeyed literal, a waiver —
// keeps it quiet.
package main

import (
	"fmt"
	"sort"
)

func init() {}

var _ = blankKeeps

func main() {
	var s shape = square{side: 2} // a module interface keeps square.area
	words := byLen{"ccc", "a"}
	sort.Sort(words) // a stdlib interface keeps Len, Less and Swap
	fmt.Println(s.area(), total(pair{1, 2}), celsius(3), live())
}

func blankKeeps() {}

type shape interface{ area() int }

type square struct {
	side  int
	color string // want `field color is unused`
}

func (q square) area() int { return q.side * q.side }

func (q square) perimeter() int { return 4 * q.side } // want `method square.perimeter is unused`

// pair's y is set by an unkeyed literal and never read: it is used.
type pair struct{ x, y int }

func total(p pair) int { return p.x }

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// fmt prints a celsius through String; Kelvin has no caller.
type celsius int

func (c celsius) String() string { return fmt.Sprintf("%d°C", int(c)) }
func (c celsius) Kelvin() int    { return int(c) + 273 } // want `method celsius.Kelvin is unused`

func dead() {} // want `func dead is unused`

// onlyTested is called by unused_test.go alone.
func onlyTested() int { return 1 } // want `func onlyTested is unused`

// A call from its own body does not keep recursive alive.
func recursive(n int) int { // want `func recursive is unused`
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// Its method's receiver does not keep orphan alive.
type orphan struct{} // want `type orphan is unused`

func (orphan) touch() {} // want `method orphan.touch is unused`

const unusedConst = 1 // want `const unusedConst is unused`

func waived() {} //mclint:unused the fixture's honoured waiver

func live() int { return 2 } //mclint:unused main calls it after all // want `stale //mclint:unused waiver: no unused finding here to suppress`

// Pinned is referenced by the fixture's benchmark/ stub.
func Pinned() {} //mclint:unused pinned by benchmark/bench.go

func PinnedStale() {} //mclint:unused pinned by benchmark/bench.go // want `stale //mclint:unused waiver: benchmark/bench.go no longer references func PinnedStale`

// A pin names the file that holds the reference.
func PinnedElsewhere() {} //mclint:unused pinned by benchmark/other.go // want `stale //mclint:unused waiver: benchmark/other.go no longer references func PinnedElsewhere`

//mclint:unsued a misspelt waiver waives nothing // want `unknown analyzer "unsued" in waiver`
func typo() {} // want `func typo is unused`
