// Package analysis is mclint's static-analysis driver: a stdlib-only
// (go/ast, go/parser, go/types) framework that loads this module's
// packages and runs a pluggable set of analyzers over them.
//
// The analyzers enforce the repository's determinism and concurrency
// contracts (DESIGN.md §9): the paper's allocators only work if every
// site computes the same answer from the same observations, and the
// experiment engine promises bit-identical output at any worker count.
// Those guarantees are trivially destroyed by a stray time.Now, a global
// math/rand draw, or an unordered map range feeding RNG draws or output —
// exactly the class of hazard a human reviewer misses. mclint makes the
// contract machine-checked.
//
// A diagnostic can be waived with a comment on the flagged line or the
// line directly above it:
//
//	//mclint:<analyzer> optional justification
//
// Waivers naming an analyzer that does not exist are themselves reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check. Run inspects a single type-checked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in output, -only/-skip selection, and
	// waiver comments. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Packages lists the import paths the analyzer applies to. The driver
	// only invokes Run on packages whose path appears here (nil means
	// every loaded package, which no shipped analyzer uses).
	Packages []string
	// Run performs the analysis on one package.
	Run func(*Pass)
}

// AppliesTo reports whether the analyzer targets the package path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == path {
			return true
		}
	}
	return false
}

// A Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one finding, addressed by file position. The struct is
// the unit of mclint's -json output.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// WaiverDiagnostic is the pseudo-analyzer name used for findings about
// malformed waiver comments themselves.
const WaiverDiagnostic = "mclint"

// All returns the full analyzer registry in fixed order. Waiver comments
// are validated against this set regardless of -only/-skip selection.
func All() []*Analyzer {
	return []*Analyzer{DetRand, MapOrder, LockScope, LoopLock, ErrDrop, MetricName, AtomicField}
}

// ByName returns the registered analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Select resolves -only/-skip analyzer selections against the registry.
// Both arguments are comma-separated analyzer names; empty means "no
// constraint". Unknown names are an error, and selecting and skipping at
// once is rejected to keep invocations unambiguous.
func Select(only, skip string) ([]*Analyzer, error) {
	if only != "" && skip != "" {
		return nil, fmt.Errorf("use -only or -skip, not both")
	}
	parse := func(csv string) (map[string]bool, error) {
		if csv == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, name := range splitComma(csv) {
			if ByName(name) == nil {
				return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames())
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse(only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse(skip)
	if err != nil {
		return nil, err
	}
	var out []*Analyzer
	for _, a := range All() {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("selection matches no analyzers")
	}
	return out, nil
}

func analyzerNames() string {
	names := make([]string, 0, len(All()))
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return strings.Join(names, ", ")
}

func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
