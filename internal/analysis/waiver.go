package analysis

import (
	"slices"
	"sort"
	"strings"
)

// A waiver is one //mclint:<name> comment. It suppresses diagnostics of
// the named analyzer on its own line (trailing comment) and on the line
// directly below it (lead comment). Anything after the name is a free-
// form justification for the reader.
type waiver struct {
	file      string
	line, col int
	name      string
}

const waiverPrefix = "mclint:"

// collectWaivers scans a package's comments for waivers. Waivers naming
// an unknown analyzer are reported as diagnostics of the pseudo-analyzer
// "mclint": a typo in a waiver must not silently stop suppressing (or
// silently suppress nothing), so it fails the lint run instead.
func collectWaivers(pkg *Package, diags *[]Diagnostic) []waiver {
	var out []waiver
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+waiverPrefix)
				if !ok {
					continue
				}
				name := text
				if i := strings.IndexAny(text, " \t"); i >= 0 {
					name = text[:i]
				}
				pos := pkg.Fset.Position(c.Pos())
				if ByName(name) == nil {
					*diags = append(*diags, Diagnostic{
						Analyzer: WaiverDiagnostic,
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "unknown analyzer \"" + name + "\" in waiver (have " + analyzerNames() + ")",
					})
					continue
				}
				out = append(out, waiver{file: pos.Filename, line: pos.Line, col: pos.Column, name: name})
			}
		}
	}
	return out
}

// applyWaivers drops diagnostics covered by a waiver. Diagnostics about
// the waivers themselves (analyzer "mclint") are never waivable. A waiver
// of an analyzer that ran, but that covers none of its diagnostics, is
// stale and reported: it would silently excuse the next finding at its
// site. A waiver of an analyzer that did not run is not judged.
func applyWaivers(diags []Diagnostic, waivers []waiver, ran []*Analyzer) []Diagnostic {
	if len(waivers) == 0 {
		return diags
	}
	type key struct {
		file string
		line int
		name string
	}
	covered := make(map[key][]int, 2*len(waivers)) // site → the waivers covering it
	for i, w := range waivers {
		for _, line := range [...]int{w.line, w.line + 1} { // trailing, lead comment
			k := key{w.file, line, w.name}
			covered[k] = append(covered[k], i)
		}
	}
	used := make([]bool, len(waivers))
	kept := diags[:0]
	for _, d := range diags {
		by := covered[key{d.File, d.Line, d.Analyzer}]
		if d.Analyzer != WaiverDiagnostic && len(by) > 0 {
			for _, i := range by {
				used[i] = true
			}
			continue
		}
		kept = append(kept, d)
	}
	for i, w := range waivers {
		if !used[i] && slices.ContainsFunc(ran, func(a *Analyzer) bool { return a.Name == w.name }) {
			kept = append(kept, Diagnostic{
				Analyzer: WaiverDiagnostic,
				File:     w.file,
				Line:     w.line,
				Col:      w.col,
				Message:  "stale //" + waiverPrefix + w.name + " waiver: no " + w.name + " finding here to suppress",
			})
		}
	}
	return kept
}

// sortDiagnostics orders findings by file, line, column, then analyzer —
// mclint's own output must be deterministic.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
