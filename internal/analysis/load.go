package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
// Files are filtered by //go:build constraints and filename GOOS/GOARCH
// suffixes for the host platform, mirroring what `go build` would
// compile here. Test files are excluded.
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

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names) // deterministic file order → deterministic diagnostics
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if !fileMatchesPlatform(name, src) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, path, src, parser.ParseComments)
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

// fileMatchesPlatform reports whether a file would be compiled on the
// host GOOS/GOARCH, honoring both filename suffix conventions
// (name_GOOS.go, name_GOOS_GOARCH.go, name_GOARCH.go) and //go:build
// constraint lines. mclint analyzes the platform it runs on; the CI
// matrix is where other platforms get covered.
func fileMatchesPlatform(name string, src []byte) bool {
	if !suffixMatches(name) {
		return false
	}
	expr, ok := buildConstraint(src)
	if !ok {
		return true
	}
	return expr.Eval(func(tag string) bool {
		switch tag {
		case runtime.GOOS, runtime.GOARCH, "gc":
			return true
		case "unix":
			return unixGOOS[runtime.GOOS]
		case "cgo":
			return false
		}
		// Language-version tags (go1.N): this toolchain satisfies any
		// version the module can require.
		return strings.HasPrefix(tag, "go1.")
	})
}

var unixGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "linux": true,
	"netbsd": true, "openbsd": true, "solaris": true,
}

var knownGOOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true,
	"freebsd": true, "illumos": true, "ios": true, "js": true,
	"linux": true, "netbsd": true, "openbsd": true, "plan9": true,
	"solaris": true, "wasip1": true, "windows": true,
}

var knownGOARCH = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true,
	"loong64": true, "mips": true, "mips64": true, "mips64le": true,
	"mipsle": true, "ppc64": true, "ppc64le": true, "riscv64": true,
	"s390x": true, "wasm": true,
}

func suffixMatches(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	parts := strings.Split(base, "_")
	// Trailing _GOARCH (optionally preceded by _GOOS), or trailing _GOOS.
	if n := len(parts); n > 1 && knownGOARCH[parts[n-1]] {
		if parts[n-1] != runtime.GOARCH {
			return false
		}
		if n > 2 && knownGOOS[parts[n-2]] && parts[n-2] != runtime.GOOS {
			return false
		}
		return true
	}
	if n := len(parts); n > 1 && knownGOOS[parts[n-1]] && parts[n-1] != runtime.GOOS {
		return false
	}
	return true
}

func buildConstraint(src []byte) (constraint.Expr, bool) {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		if constraint.IsGoBuild(line) {
			expr, err := constraint.Parse(line)
			if err != nil {
				return nil, false
			}
			return expr, true
		}
	}
	return nil, false
}
