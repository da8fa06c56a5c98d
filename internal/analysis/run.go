package analysis

// RunModule loads every package of the module and runs each analyzer over
// the packages it applies to, returning the surviving (non-waived)
// diagnostics sorted by position. A nil selection means All().
func RunModule(l *Loader, analyzers []*Analyzer) ([]Diagnostic, error) {
	if analyzers == nil {
		analyzers = All()
	}
	paths, err := l.modulePackages()
	if err != nil {
		return nil, err
	}
	mod := &Module{loader: l, memo: map[*Analyzer]any{}}
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		mod.Packages = append(mod.Packages, pkg)
	}
	var diags []Diagnostic
	for _, pkg := range mod.Packages {
		var applicable []*Analyzer
		for _, a := range analyzers {
			if a.AppliesTo(pkg.Path) {
				applicable = append(applicable, a)
			}
		}
		diags = append(diags, runPackage(mod, pkg, applicable)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}

// runPackage runs analyzers over one loaded package, validates the
// package's waiver comments against what they ran, and returns the
// diagnostics that survive waiving (unsorted).
func runPackage(mod *Module, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	waivers := collectWaivers(pkg, &diags)
	for _, a := range analyzers {
		a.Run(&Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Module:   mod,
			analyzer: a,
			diags:    &diags,
		})
	}
	return applyWaivers(diags, waivers, analyzers)
}
