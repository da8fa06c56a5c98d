package analysis

// Test-only helpers: no non-test code needs these, so they live beside
// the tests that do.

// LoadDir type-checks the single package in dir under the given import
// path without requiring it to live inside the module tree. Fixture
// packages under testdata/ are loaded this way.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	return l.loadDir(dir, importPath)
}

// RunFixture runs the given analyzers over pkg unconditionally (ignoring
// their package targeting) with waiver processing — the entry point for
// analyzer tests over fixture packages. pkg, which l loaded, is the run's
// whole Module.
func RunFixture(l *Loader, pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	mod := &Module{Packages: []*Package{pkg}, loader: l, memo: map[*Analyzer]any{}}
	diags := runPackage(mod, pkg, analyzers)
	sortDiagnostics(diags)
	return diags
}
