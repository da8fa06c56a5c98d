// Command mclint is the repository's determinism & concurrency linter.
// It loads the module's packages with the standard library's go/ast +
// go/types machinery (no external dependencies) and runs the analyzers
// registered in internal/analysis:
//
//	detrand     no wall clock or ambient randomness in deterministic packages
//	maporder    no order-sensitive range-over-map in deterministic packages
//	lockscope   no function calls while a sync mutex is held
//	looplock    no per-iteration mutex acquisition inside loop bodies
//	errdrop     no silently discarded errors on the network paths
//	metricname  obs registry metric names are snake_case and unique
//	atomicfield no struct fields mixing sync/atomic and plain access
//
// Findings print as file:line:col: analyzer: message and make the exit
// status nonzero, so `make lint` gates CI. A finding can be waived at
// its site with a justification comment:
//
//	//mclint:<analyzer> why order/time/the error cannot matter here
//
// Usage:
//
//	mclint [-C dir] [-only a,b | -skip a,b] [-format text|json|github] [-list]
//
// -format=json (or the -json alias) emits the diagnostics as a JSON
// array for tooling ({"analyzer", "file", "line", "col", "message"});
// an empty run emits []. -format=github emits GitHub Actions workflow
// commands (::error file=...,line=...::message) so CI findings annotate
// the pull request inline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"sessiondir/internal/analysis"
)

func main() {
	var (
		dir     = flag.String("C", ".", "module root to analyze")
		only    = flag.String("only", "", "comma-separated analyzers to run (default: all)")
		skip    = flag.String("skip", "", "comma-separated analyzers to skip")
		format  = flag.String("format", "text", "output format: text, json, or github")
		jsonOut = flag.Bool("json", false, "shorthand for -format=json")
		list    = flag.Bool("list", false, "list the registered analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut {
		*format = "json"
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "mclint: unknown -format %q (want text, json, or github)\n", *format)
		os.Exit(2)
	}

	selected, err := analysis.Select(*only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclint:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclint:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunModule(loader, selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclint:", err)
		os.Exit(2)
	}

	switch *format {
	case "json":
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "mclint:", err)
			os.Exit(2)
		}
	case "github":
		for _, d := range diags {
			fmt.Println(githubAnnotation(d))
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if *format != "json" {
			fmt.Fprintf(os.Stderr, "mclint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// githubAnnotation renders one finding as a GitHub Actions workflow
// command, which the Actions runner turns into an inline PR annotation.
func githubAnnotation(d analysis.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=mclint/%s::%s",
		escapeProperty(d.File), d.Line, d.Col, escapeProperty(d.Analyzer), escapeData(d.Message))
}

// escapeData escapes the message part of a workflow command.
func escapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// escapeProperty escapes a property value of a workflow command.
func escapeProperty(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}
