package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Unused reports each package-level func, method, type, const and var,
// and each named struct field, that no non-test code references: a name
// only its own tests call still costs every reader.
//
// References are the whole run's, gathered once. One inside the name's
// own declaration does not count, and a type's declaration takes in its
// methods, so a receiver does not keep its type alive. main, init and _
// are roots, as is each method an interface reaches: when a value of type
// T is converted or assigned to an interface type I, T's methods that I
// names are used, and so are T's String and Error, which fmt finds behind
// any interface. An unkeyed composite literal uses each field it sets. A
// non-main package that no run package imports is reported once, at its
// first package clause.
//
// benchmark/'s references keep nothing alive. A waiver whose reason
// starts "pinned by benchmark/" claims benchmark/ references the name and
// is reported once it does not; a waiver on a referenced name, or with no
// reason, is reported too.
var Unused = &Analyzer{
	Name: "unused",
	Doc: "every package-level func, method, type, const, var and struct field is referenced " +
		"by non-test code outside its own declaration; waivers give a reason and go stale " +
		"once the name is referenced, or once benchmark/ stops referencing a pinned one",
	Run: runUnused,
}

const benchmarkPin = "pinned by benchmark/"

// unusedRefs is what a run's references establish.
type unusedRefs struct {
	used     map[types.Object]bool   // referenced outside its own declaration
	imported map[*types.Package]bool // imported by a package of the run
	pinned   map[pin]bool            // references from benchmark/
	pinErr   error                   // why benchmark/ did not load
}

// A pin is a name and the benchmark/ file that references it.
type pin struct {
	obj  types.Object
	file string
}

// A declared name is one the analyzer may report.
type declared struct {
	obj  types.Object
	what string
}

func runUnused(pass *Pass) {
	refs := pass.once(func() any { return collectUnusedRefs(pass.Module) }).(*unusedRefs)
	var decls []declared
	eachDecl(pass.Files, func(id *ast.Ident, what string, _ ast.Node) {
		fn, isFunc := pass.Info.Defs[id].(*types.Func)
		root := id.Name == "_" || isFunc && fn.Type().(*types.Signature).Recv() == nil &&
			(id.Name == "init" || id.Name == "main" && pass.Pkg.Name() == "main")
		if !root {
			decls = append(decls, declared{pass.Info.Defs[id], what})
		}
	})
	if pass.Pkg.Name() != "main" && !refs.imported[pass.Pkg] {
		pass.Reportf(pass.Files[0].Package, "package %s is unused: no non-test package imports it", pass.Pkg.Name())
	} else {
		for _, d := range decls {
			if !refs.used[d.obj] {
				pass.Reportf(d.obj.Pos(), "%s is unused: no non-test code references it", d.what)
			}
		}
	}
	checkUnusedWaivers(pass, refs, decls)
}

// checkUnusedWaivers reports each //mclint:unused waiver that gives no
// reason, and each pin benchmark/ no longer holds. A waiver on a name
// that non-test code references suppresses nothing, which the driver
// reports.
func checkUnusedWaivers(pass *Pass, refs *unusedRefs, decls []declared) {
	byLine := map[token.Position]declared{} // keyed by Filename and Line only
	for _, d := range decls {
		p := pass.Fset.Position(d.obj.Pos())
		p.Offset, p.Column = 0, 0
		if _, dup := byLine[p]; !dup {
			byLine[p] = d
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				reason, ok := strings.CutPrefix(c.Text, "//"+waiverPrefix+pass.analyzer.Name)
				if !ok || reason != "" && reason[0] != ' ' && reason[0] != '\t' {
					continue
				}
				reason = strings.TrimSpace(reason)
				if reason == "" {
					pass.reportWaiver(c.Pos(), "//mclint:unused waiver gives no reason")
					continue
				}
				file, isPin := strings.CutPrefix(reason, benchmarkPin)
				if !isPin {
					continue
				}
				file, _, _ = strings.Cut(file, " ")
				p := pass.Fset.Position(c.Pos())
				p.Offset, p.Column = 0, 0
				d, found := byLine[p]
				if !found {
					p.Line++
					d, found = byLine[p]
				}
				switch {
				case !found || refs.used[d.obj]:
					// It suppresses nothing; the driver reports that.
				case refs.pinErr != nil:
					pass.reportWaiver(c.Pos(), "cannot check the pin on %s: %v", d.what, refs.pinErr)
				case !refs.pinned[pin{d.obj, file}]:
					pass.reportWaiver(c.Pos(), "stale //mclint:unused waiver: benchmark/%s no longer references %s", file, d.what)
				}
			}
		}
	}
}

// eachDecl calls yield for every name declared at package level in files,
// and every named field of a struct type written there, with the node its
// declaration spans.
func eachDecl(files []*ast.File, yield func(id *ast.Ident, what string, decl ast.Node)) {
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				what := "func "
				if decl.Recv != nil {
					what = "method " + recvType(decl).Name + "."
				}
				yield(decl.Name, what+decl.Name.Name, decl)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						yield(spec.Name, "type "+spec.Name.Name, spec)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							yield(id, decl.Tok.String()+" "+id.Name, spec)
						}
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if st, ok := n.(*ast.StructType); ok {
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								yield(id, "field "+id.Name, field)
							}
						}
					}
					return true
				})
			}
		}
	}
}

// recvType is the identifier of a method's receiver base type.
func recvType(fd *ast.FuncDecl) *ast.Ident {
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch generic := t.(type) {
	case *ast.IndexExpr:
		t = generic.X
	case *ast.IndexListExpr:
		t = generic.X
	}
	return t.(*ast.Ident)
}

// collectUnusedRefs gathers the run's references, and benchmark/'s.
func collectUnusedRefs(mod *Module) *unusedRefs {
	refs := &unusedRefs{used: map[types.Object]bool{}, imported: map[*types.Package]bool{}, pinned: map[pin]bool{}}
	own := map[types.Object][]ast.Node{}
	for _, pkg := range mod.Packages {
		eachDecl(pkg.Files, func(id *ast.Ident, _ string, decl ast.Node) {
			own[pkg.Info.Defs[id]] = append(own[pkg.Info.Defs[id]], decl)
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				t := pkg.Info.Uses[recvType(fd)]
				own[t] = append(own[t], decl)
			}
		})
		for _, imp := range pkg.Pkg.Imports() {
			refs.imported[imp] = true
		}
	}
	for _, pkg := range mod.Packages {
		collectRefs(pkg, own, func(obj types.Object, _ token.Pos) { refs.used[obj] = true })
	}
	if bench, err := mod.loader.Load(mod.loader.ModulePath + "/benchmark"); err != nil {
		refs.pinErr = err
	} else {
		collectRefs(bench, nil, func(obj types.Object, at token.Pos) {
			refs.pinned[pin{obj, filepath.Base(bench.Fset.Position(at).Filename)}] = true
		})
	}
	return refs
}

// collectRefs calls use for each object pkg references from outside the
// object's own declaration nodes.
func collectRefs(pkg *Package, own map[types.Object][]ast.Node, use func(obj types.Object, at token.Pos)) {
	info := pkg.Info
	mark := func(obj types.Object, at token.Pos) {
		switch o := obj.(type) { // an instantiated generic's object → its declaration
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		for _, n := range own[obj] {
			if n.Pos() <= at && at < n.End() {
				return
			}
		}
		use(obj, at)
	}
	for id, obj := range info.Uses { //mclint:maporder mark only adds to sets
		mark(obj, id.Pos())
	}
	// convert marks what a value of type from brings into an interface.
	convert := func(from, to types.Type, at token.Pos) {
		if from == nil || to == nil || !types.IsInterface(to) || types.IsInterface(from) {
			return
		}
		iface := to.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			if m, _, _ := types.LookupFieldOrMethod(from, true, iface.Method(i).Pkg(), iface.Method(i).Name()); m != nil {
				mark(m, at)
			}
		}
		for _, name := range [...]string{"String", "Error"} {
			m, _, _ := types.LookupFieldOrMethod(from, true, nil, name)
			if fn, ok := m.(*types.Func); ok {
				sig := fn.Type().(*types.Signature)
				if sig.Params().Len() == 0 && sig.Results().Len() == 1 && sig.Results().At(0).Type() == types.Typ[types.String] {
					mark(m, at)
				}
			}
		}
	}
	var results []*types.Tuple // of the enclosing functions, innermost last
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				results = append(results, info.Defs[n.Name].Type().(*types.Signature).Results())
				ast.Inspect(n.Body, visit)
				results = results[:len(results)-1]
			}
			return false
		case *ast.FuncLit:
			results = append(results, info.TypeOf(n).(*types.Signature).Results())
			ast.Inspect(n.Body, visit)
			results = results[:len(results)-1]
			return false
		case *ast.ReturnStmt:
			if res := results[len(results)-1]; len(n.Results) == res.Len() {
				for i, e := range n.Results {
					convert(info.TypeOf(e), res.At(i).Type(), e.Pos())
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, e := range n.Rhs {
					convert(info.TypeOf(e), info.TypeOf(n.Lhs[i]), e.Pos())
				}
			}
		case *ast.ValueSpec:
			for _, e := range n.Values {
				if n.Type != nil {
					convert(info.TypeOf(e), info.TypeOf(n.Type), e.Pos())
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				convert(info.TypeOf(n.Value), ch.Elem(), n.Value.Pos())
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() && len(n.Args) == 1 {
				convert(info.TypeOf(n.Args[0]), tv.Type, n.Pos())
			} else if sig, ok := info.TypeOf(n.Fun).(*types.Signature); ok {
				params, last := sig.Params(), sig.Params().Len()-1
				for i, e := range n.Args {
					switch {
					case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
						convert(info.TypeOf(e), params.At(last).Type().(*types.Slice).Elem(), e.Pos())
					case i <= last:
						convert(info.TypeOf(e), params.At(i).Type(), e.Pos())
					}
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			for i, e := range n.Elts {
				var key ast.Expr
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					key, e = kv.Key, kv.Value
				}
				var to types.Type
				switch u := t.Underlying().(type) {
				case *types.Struct:
					field := u.Field(i)
					if key != nil {
						field, _ = info.Uses[key.(*ast.Ident)].(*types.Var)
					} else {
						mark(field, n.Pos())
					}
					if field != nil {
						to = field.Type()
					}
				case *types.Slice:
					to = u.Elem()
				case *types.Array:
					to = u.Elem()
				case *types.Map:
					to = u.Elem()
					convert(info.TypeOf(key), u.Key(), n.Pos())
				}
				convert(info.TypeOf(e), to, e.Pos())
			}
		}
		return true
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, visit)
	}
}
