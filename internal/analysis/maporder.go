package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map in every library package unless
// the loop body is provably order-insensitive. Go randomizes map
// iteration order per run, so a map range whose body's effect depends on
// visit order (appending to a slice, concatenating, feeding RNG draws)
// silently breaks run-to-run reproducibility — the exact hazard that
// DESIGN.md §8's bit-identical rule exists to prevent.
//
// A body is accepted as order-insensitive when every statement is one of:
//
//   - a commutative accumulation (`sum += v`, `n++`, `acc |= bit`, ...;
//     string += is concatenation and does NOT qualify);
//   - a keyed write (`out[k] = v*2`), which lands in the same place
//     whatever the visit order;
//   - a `delete` call;
//   - a min/max update (`if v < best { best = v }`);
//   - a side-effect-free guard around such statements (including
//     `continue` as a pure filter).
//
// The collect-then-sort idiom — a body that only does
// `keys = append(keys, k)` where `keys` is later passed to a sort.* or
// slices.Sort* call in the same function — is also accepted: the append
// order is arbitrary but the sort erases it.
//
// Anything else needs either a rewrite (iterate sorted keys) or an
// explicit `//mclint:maporder` waiver stating why order cannot matter.
// A command (package main) is exempt, as under DetRand.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag range-over-map in library packages unless the body is provably " +
		"order-insensitive or carries an //mclint:maporder waiver",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	for _, f := range pass.Files {
		// Map each statement to the statements that follow it in its
		// enclosing block, so collect-then-sort can look downstream.
		following := map[ast.Stmt][]ast.Stmt{}
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			case *ast.CommClause:
				list = b.Body
			default:
				return true
			}
			for i, s := range list {
				following[s] = list[i+1:]
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if bodyOrderInsensitive(pass, rs.Body.List) {
				return true
			}
			if collectThenSorted(rs, following) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map has an order-sensitive body; iterate sorted keys, make the body commutative, or waive with //mclint:maporder",
			)
			return true
		})
	}
}

// bodyOrderInsensitive reports whether executing stmts for the map's
// entries in any order provably yields the same final state.
func bodyOrderInsensitive(pass *Pass, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !stmtOrderInsensitive(pass, s) {
			return false
		}
	}
	return true
}

func stmtOrderInsensitive(pass *Pass, s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Commutative accumulations — except string concatenation,
			// whose result spells out the visit order.
			for _, lhs := range s.Lhs {
				if t := pass.TypeOf(lhs); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						return false
					}
				}
			}
			return sideEffectFree(pass, s.Rhs...)
		case token.ASSIGN:
			// Keyed writes: out[k] = v lands at the same key regardless
			// of order (assuming distinct map keys, which range gives us).
			for _, lhs := range s.Lhs {
				if _, ok := lhs.(*ast.IndexExpr); !ok {
					return false
				}
			}
			return sideEffectFree(pass, s.Rhs...)
		default:
			return false
		}
	case *ast.IncDecStmt:
		return true
	case *ast.BranchStmt:
		// `continue` is a pure filter within this loop; break/goto pick
		// out a specific (order-dependent) entry.
		return s.Tok == token.CONTINUE && s.Label == nil
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		return ok && isBuiltin(pass, call, "delete")
	case *ast.IfStmt:
		if s.Init != nil {
			return false
		}
		if isMinMaxUpdate(pass, s) {
			return true
		}
		if !sideEffectFree(pass, s.Cond) {
			return false
		}
		if !bodyOrderInsensitive(pass, s.Body.List) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return bodyOrderInsensitive(pass, e.List)
		case *ast.IfStmt:
			return stmtOrderInsensitive(pass, e)
		default:
			return false
		}
	case *ast.BlockStmt:
		return bodyOrderInsensitive(pass, s.List)
	default:
		return false
	}
}

// isMinMaxUpdate recognizes `if v < best { best = v }` (any comparison
// direction, assigned variable on either side of the comparison).
func isMinMaxUpdate(pass *Pass, s *ast.IfStmt) bool {
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	if s.Else != nil || len(s.Body.List) != 1 {
		return false
	}
	assign, ok := s.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 {
		return false
	}
	target, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	if !sideEffectFree(pass, cond, assign.Rhs[0]) {
		return false
	}
	// The updated variable must be one of the comparison's operands, so
	// the comparison really is a running-extremum guard.
	for _, operand := range []ast.Expr{cond.X, cond.Y} {
		if id, ok := operand.(*ast.Ident); ok && id.Name == target.Name {
			return true
		}
	}
	return false
}

// collectThenSorted recognizes the key-collection idiom: a body that is
// exactly `keys = append(keys, k)`, where keys is subsequently passed to
// a sorting call later in the same block.
func collectThenSorted(rs *ast.RangeStmt, following map[ast.Stmt][]ast.Stmt) bool {
	if len(rs.Body.List) != 1 {
		return false
	}
	assign, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || assign.Tok != token.ASSIGN || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	target, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if first, ok := call.Args[0].(*ast.Ident); !ok || first.Name != target.Name {
		return false
	}
	for _, s := range following[rs] {
		if stmtSorts(s, target.Name) {
			return true
		}
	}
	return false
}

// stmtSorts reports whether s is a call into package sort or slices
// passing the named slice — sort.Strings(keys), sort.Slice(keys, ...),
// slices.Sort(keys), slices.SortFunc(keys, ...) and friends.
func stmtSorts(s ast.Stmt, name string) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || (pkg.Name != "sort" && pkg.Name != "slices") {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && arg.Name == name
}

// sideEffectFree reports whether evaluating the expressions cannot
// mutate state: no calls (except len/cap/min/max), sends, or receives.
func sideEffectFree(pass *Pass, exprs ...ast.Expr) bool {
	ok := true
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !isBuiltin(pass, n, "len", "cap", "min", "max") {
					ok = false
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					ok = false
				}
			case *ast.FuncLit:
				return false // literal is a value; not executed here
			}
			return ok
		})
	}
	return ok
}

func isBuiltin(pass *Pass, call *ast.CallExpr, names ...string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	for _, n := range names {
		if id.Name == n {
			return true
		}
	}
	return false
}
