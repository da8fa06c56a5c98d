package analysis

import "sort"

// RunModule loads every package targeted by the selected analyzers and
// runs each analyzer over its targets, returning the surviving (non-
// waived) diagnostics sorted by position. A nil selection means All().
func RunModule(l *Loader, analyzers []*Analyzer) ([]Diagnostic, error) {
	if analyzers == nil {
		analyzers = All()
	}
	mod := &Module{loader: l, memo: map[*Analyzer]any{}}
	for _, path := range targetUnion(analyzers) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		mod.Packages = append(mod.Packages, pkg)
	}
	var diags []Diagnostic
	for _, pkg := range mod.Packages {
		diags = append(diags, runPackage(mod, pkg, analyzers)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// runPackage runs the applicable subset of analyzers over one loaded
// package, validates the package's waiver comments, and returns the
// diagnostics that survive waiving (unsorted).
func runPackage(mod *Module, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	waivers := collectWaivers(pkg, &diags)
	for _, a := range analyzers {
		if !a.AppliesTo(pkg.Path) {
			continue
		}
		runOne(mod, pkg, a, &diags)
	}
	return applyWaivers(diags, waivers)
}

func runOne(mod *Module, pkg *Package, a *Analyzer, diags *[]Diagnostic) {
	a.Run(&Pass{
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Pkg,
		Info:     pkg.Info,
		Module:   mod,
		analyzer: a,
		diags:    diags,
	})
}

func targetUnion(analyzers []*Analyzer) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range analyzers {
		for _, p := range a.Packages {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}
