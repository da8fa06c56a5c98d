// Package waiver is a fixture for mclint's waiver machinery: a
// //mclint:<analyzer> comment suppresses that analyzer's diagnostics on
// its own line and the line below — exactly one site per waiver — and a
// waiver naming an unknown analyzer is itself reported, as is one that
// suppresses nothing of an analyzer that ran.
package waiver

// Lead form: the waiver on the line above the range statement.
func waivedLead(m map[string]int) []int {
	var out []int
	//mclint:maporder the consumer treats out as an unordered bag
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// Trailing form: waiver and flagged statement share a line.
func waivedTrailing(m map[string]int) []int {
	var out []int
	for _, v := range m { //mclint:maporder the consumer sorts before use
		out = append(out, v)
	}
	return out
}

// An identical loop without a waiver still fires: a waiver covers its
// own line and the next, nothing more.
func unwaived(m map[string]int) []int {
	var out []int
	for _, v := range m { // want `order-sensitive`
		out = append(out, v)
	}
	return out
}

// A typo in the analyzer name must not silently suppress nothing.
//mclint:maporders // want `unknown analyzer "maporders" in waiver`
func typoWaiver(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// A waiver with no finding at its site would silently excuse the next
// one written there, so it is reported.
func staleWaiver(m map[string]int) int {
	n := 0
	//mclint:maporder // want `stale //mclint:maporder waiver: no maporder finding here to suppress`
	for range m {
		n++
	}
	return n
}

// A waiver of an analyzer that did not run on the package is not judged.
func notJudged() {
	//mclint:lockscope the fixture runs maporder only
}
