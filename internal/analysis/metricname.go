package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
)

// MetricName statically enforces the obs registry's naming contract on
// literal metric names: snake_case (`^[a-z][a-z0-9_]*$`) and no two
// registration sites in a package claiming the same name. The registry
// re-checks both at runtime (error from the plain constructors, panic
// from the Must variants), but a bad literal name is a programming error
// the build should catch, not a scrape-time surprise — and a duplicate
// registration panics only on the code path that reaches it.
//
// Dynamic names (obs.Sanitize over an allocator's display name, say)
// are out of static reach and stay the runtime check's job.
var MetricName = &Analyzer{
	Name: "metricname",
	Doc: "obs registry metric names must be snake_case and unique; literal names " +
		"passed to Registry registration calls are checked at lint time, mirroring " +
		"the runtime validation in obs",
	Packages: []string{
		"sessiondir",
		"sessiondir/internal/obs",
		"sessiondir/internal/transport",
		"sessiondir/internal/storage",
	},
	Run: runMetricName,
}

// registryMethods are the obs.Registry registration entry points; each
// takes the metric name as its first argument.
var registryMethods = map[string]bool{
	"Counter":         true,
	"MustCounter":     true,
	"Gauge":           true,
	"MustGauge":       true,
	"CounterFunc":     true,
	"MustCounterFunc": true,
	"GaugeFunc":       true,
	"MustGaugeFunc":   true,
	"Histogram":       true,
	"MustHistogram":   true,
}

func runMetricName(pass *Pass) {
	first := map[string]token.Pos{} // literal name -> first registration site
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registryMethods[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			if !isObsRegistry(pass.TypeOf(sel.X)) {
				return true
			}
			name, ok := constString(pass, call.Args[0])
			if !ok {
				return true // dynamic name: validated at registration time
			}
			if !snakeCaseMetric(name) {
				pass.Reportf(call.Args[0].Pos(),
					"metric name %q is not snake_case ([a-z][a-z0-9_]*)", name)
				return true
			}
			if prev, dup := first[name]; dup {
				p := pass.Fset.Position(prev)
				pass.Reportf(call.Args[0].Pos(),
					"metric name %q already registered at %s:%d",
					name, filepath.Base(p.Filename), p.Line)
				return true
			}
			first[name] = call.Args[0].Pos()
			return true
		})
	}
}

// isObsRegistry reports whether t is obs.Registry or *obs.Registry. The
// receiver is matched by package *name* and type name (not import path)
// so fixture stubs exercise the analyzer without importing the module.
func isObsRegistry(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Registry" &&
		obj.Pkg() != nil && obj.Pkg().Name() == "obs"
}

// constString returns e's compile-time string value, if it has one.
// Constant folding covers literals, named constants, and concatenations.
func constString(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// snakeCaseMetric mirrors obs.ValidName: a lower-case letter followed by
// lower-case letters, digits, and underscores.
func snakeCaseMetric(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}
