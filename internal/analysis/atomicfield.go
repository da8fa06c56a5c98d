package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicField flags struct fields with mixed atomic and plain access —
// the bug class the transport handler pointer and the obs metrics hot
// paths are one careless edit away from. A field read via
// atomic.LoadUint64 in one function and via a bare load in another
// compiles, passes tests on amd64, and tears on weaker memory models;
// an atomic.Int64 copied by value silently forks the counter.
//
// Two patterns are reported, per package:
//
//   - a plain-typed field passed by address to a sync/atomic function
//     (atomic.AddUint64(&s.n, 1)) AND also read or written directly
//     (s.n++, v := s.n) — every access must go through sync/atomic;
//   - a field of an atomic wrapper type (atomic.Bool/Int64/Uint64/
//     Pointer/Value/...) used other than through its methods or by
//     address — assigning or copying the value defeats the type.
//
// Taking a field's address (&s.n) without an atomic call around it is
// not itself flagged: handing an atomic out by reference is how the obs
// registry's CounterFunc views work. The analysis is flow-insensitive;
// single-goroutine initialization before publication needs an
// //mclint:atomicfield waiver with the justification.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "flag struct fields accessed both through sync/atomic and by " +
		"ordinary read/write, and atomic-typed fields copied by value",
	Run: runAtomicField,
}

func runAtomicField(pass *Pass) {
	a := &atomicFieldPass{
		pass:      pass,
		accounted: map[*ast.SelectorExpr]bool{},
		atomicFn:  map[*types.Var][]token.Pos{},
		plain:     map[*types.Var][]token.Pos{},
	}
	// Pass 1: account for the legitimate access forms — sync/atomic
	// calls on &field, atomic-typed method selections, and bare
	// address-of — so pass 2 sees only what's left.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.SelectorExpr); ok && a.isAtomicPkgFunc(fn) {
					for _, arg := range n.Args {
						if sel, fv := a.addressedField(arg); fv != nil {
							a.atomicFn[fv] = append(a.atomicFn[fv], arg.Pos())
							a.accounted[sel] = true
						}
					}
				}
			case *ast.SelectorExpr:
				// x.f.Load / x.f.Store(...): a method selection on the
				// field (bound or called) is the sanctioned access.
				if s, ok := pass.Info.Selections[n]; ok && s.Kind() == types.MethodVal {
					if inner, ok := n.X.(*ast.SelectorExpr); ok {
						a.accounted[inner] = true
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if sel, fv := a.addressedField(n); fv != nil {
						_ = fv
						a.accounted[sel] = true
					}
				}
			}
			return true
		})
	}
	// Pass 2: everything else touching a field is a plain access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || a.accounted[sel] {
				return true
			}
			fv := a.fieldOf(sel)
			if fv == nil {
				return true
			}
			if isAtomicWrapperType(fv.Type()) {
				pass.Reportf(sel.Pos(),
					"atomic field %s (%s) is copied or assigned directly; atomic values must not be copied — use its Load/Store methods",
					fv.Name(), fv.Type())
				return true
			}
			a.plain[fv] = append(a.plain[fv], sel.Pos())
			return true
		})
	}
	// Mixed-mode report for plain-typed fields.
	fields := make([]*types.Var, 0, len(a.atomicFn))
	for fv := range a.atomicFn {
		fields = append(fields, fv)
	}
	sort.Slice(fields, func(i, j int) bool { return fields[i].Pos() < fields[j].Pos() })
	for _, fv := range fields {
		if len(a.plain[fv]) == 0 {
			continue
		}
		atomicAt := pass.Fset.Position(minPos(a.atomicFn[fv]))
		for _, pos := range a.plain[fv] {
			pass.Reportf(pos,
				"field %s is accessed with sync/atomic (e.g. %s:%d) but read/written plainly here; every access must go through sync/atomic",
				fv.Name(), shortFile(atomicAt.Filename), atomicAt.Line)
		}
	}
}

type atomicFieldPass struct {
	pass      *Pass
	accounted map[*ast.SelectorExpr]bool
	atomicFn  map[*types.Var][]token.Pos // plain-typed fields passed to sync/atomic funcs
	plain     map[*types.Var][]token.Pos // plain-typed fields accessed directly
}

// isAtomicPkgFunc matches atomic.LoadX / atomic.AddX / ... — a selector
// on the imported sync/atomic package.
func (a *atomicFieldPass) isAtomicPkgFunc(sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := a.pass.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// addressedField matches &x.f (possibly parenthesized), returning the
// selector and the struct field it denotes.
func (a *atomicFieldPass) addressedField(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
	if p, ok := e.(*ast.ParenExpr); ok {
		return a.addressedField(p.X)
	}
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, nil
	}
	sel, ok := u.X.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	return sel, a.fieldOf(sel)
}

// fieldOf resolves a selector to the struct field it reads or writes,
// or nil if it is not a field access.
func (a *atomicFieldPass) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := a.pass.Info.Selections[sel]; ok {
		if s.Kind() != types.FieldVal {
			return nil
		}
		if fv, ok := s.Obj().(*types.Var); ok {
			return fv
		}
		return nil
	}
	if fv, ok := a.pass.Info.Uses[sel.Sel].(*types.Var); ok && fv.IsField() {
		return fv
	}
	return nil
}

// isAtomicWrapperType reports whether t is one of sync/atomic's wrapper
// types (Bool, Int32, Int64, Uint32, Uint64, Uintptr, Pointer[T],
// Value), matched by defining package path so instantiated generics
// qualify too.
func isAtomicWrapperType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

func minPos(ps []token.Pos) token.Pos {
	m := ps[0]
	for _, p := range ps[1:] {
		if p < m {
			m = p
		}
	}
	return m
}

func shortFile(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			return path[i+1:]
		}
	}
	return path
}
