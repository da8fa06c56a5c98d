package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the package's import path (how analyzers are targeted).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Loader type-checks packages of a single module using only the
// standard library: module-internal imports are resolved by mapping the
// import path onto a directory under the module root and recursing;
// everything else (the standard library) goes through go/importer's
// source importer, which type-checks GOROOT packages from source. This
// keeps go.mod dependency-free — no golang.org/x/tools.
//
// A package's files are those go/build selects for the host platform
// (platform): //go:build constraints and GOOS/GOARCH filename suffixes
// decide, as for `go build` here. Test files are excluded.
type Loader struct {
	Fset *token.FileSet
	// ModuleDir is the filesystem root of the module being analyzed.
	ModuleDir string
	// ModulePath is the module's import path prefix (from go.mod).
	ModulePath string

	std  types.ImporterFrom
	pkgs map[string]*Package // memoized by import path
}

// NewLoader builds a Loader for the module rooted at moduleDir, reading
// the module path from its go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", moduleDir)
	}
	return newLoader(moduleDir, modPath), nil
}

// The standard-library import cache is process-wide: one FileSet and one
// source importer shared by every Loader. The source importer memoizes
// the GOROOT packages it type-checks, but only per importer instance —
// before this cache, every Loader (one per fixture test, one per mclint
// run) re-type-checked sync, fmt, net, and their transitive closure from
// source. Sharing the importer means each stdlib package is checked once
// per process; the FileSet must be shared with it so stdlib positions
// stay coherent. Module packages remain per-Loader (they differ per
// fixture and may be reloaded after edits).
var (
	sharedFset    = token.NewFileSet()
	sharedStdOnce sync.Once
	sharedStd     types.ImporterFrom
	sharedStdMu   sync.Mutex // the source importer is not documented concurrency-safe
)

func stdImporter() types.ImporterFrom {
	sharedStdOnce.Do(func() {
		sharedStd = importer.ForCompiler(sharedFset, "source", nil).(types.ImporterFrom)
	})
	return sharedStd
}

func newLoader(moduleDir, modulePath string) *Loader {
	return &Loader{
		Fset:       sharedFset,
		ModuleDir:  moduleDir,
		ModulePath: modulePath,
		std:        stdImporter(),
		pkgs:       map[string]*Package{},
	}
}

// modulePackages lists the import paths of the module's packages in
// ascending order: every directory under ModuleDir holding a non-test Go
// file, except testdata/, dot-directories and benchmark/, whose references
// only pin names (see Unused).
func (l *Loader) modulePackages() ([]string, error) {
	pkgs := map[string]bool{}
	err := filepath.WalkDir(l.ModuleDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != l.ModuleDir && (name == "testdata" || name == "benchmark" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := l.ModulePath
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		pkgs[pkg] = true
		return nil
	})
	return slices.Sorted(maps.Keys(pkgs)), err
}

// Load type-checks the module package with the given import path
// (memoized; transitive module-internal deps load recursively).
func (l *Loader) Load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	dir, ok := l.moduleDirFor(importPath)
	if !ok {
		return nil, fmt.Errorf("analysis: %q is not in module %s", importPath, l.ModulePath)
	}
	return l.loadDir(dir, importPath)
}

func (l *Loader) moduleDirFor(importPath string) (string, bool) {
	if importPath == l.ModulePath {
		return l.ModuleDir, true
	}
	rel, ok := strings.CutPrefix(importPath, l.ModulePath+"/")
	if !ok {
		return "", false
	}
	return filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), true
}

// platform selects a package's files as `go build` would on the host,
// with cgo off: mclint analyzes the platform it runs on, and the CI matrix
// is where other platforms get covered.
var platform = func() build.Context {
	ctx := build.Default
	ctx.CgoEnabled = false
	return ctx
}()

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	bp, err := platform.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles { // sorted: deterministic diagnostics
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", importPath, err)
	}
	p := &Package{Path: importPath, Fset: l.Fset, Files: files, Pkg: pkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// Import implements types.Importer for the type-checker's benefit.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// type-checked from the module tree, everything else is delegated to the
// stdlib source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if mdir, ok := l.moduleDirFor(path); ok {
		if p, cached := l.pkgs[path]; cached {
			return p.Pkg, nil
		}
		p, err := l.loadDir(mdir, path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	sharedStdMu.Lock()
	defer sharedStdMu.Unlock()
	return l.std.ImportFrom(path, dir, mode)
}
