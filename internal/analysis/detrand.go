package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// DetRand forbids ambient entropy and the wall clock inside the
// deterministic packages. The DAIPR guarantee (DESIGN.md §6) and the
// parallel engine's bit-identical-output rule (§8) both require that
// every stochastic decision flow from an explicitly seeded stats.RNG:
//
//   - time.Now / time.Since / time.Until read the wall clock, which
//     differs run to run; simulated time must come from the DES.
//   - package-level math/rand and math/rand/v2 functions draw from the
//     process-global generator, whose state is shared across everything
//     in the process (and auto-seeded since Go 1.20).
//   - crypto/rand is entropy by definition.
//
// Constructing an explicit generator (rand.New, rand.NewPCG, ...) and
// calling methods on it remains legal: that is exactly how stats.RNG —
// the one sanctioned entropy source — is built.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock reads and ambient randomness in deterministic packages; " +
		"the only sanctioned entropy is stats.RNG",
	Packages: []string{
		"sessiondir",
		"sessiondir/internal/sim",
		"sessiondir/internal/allocator",
		"sessiondir/internal/announce",
		"sessiondir/internal/des",
		"sessiondir/internal/experiments",
		"sessiondir/internal/par",
		"sessiondir/internal/topology",
		"sessiondir/internal/stats",
		"sessiondir/internal/transport",
		"sessiondir/internal/chaos",
		"sessiondir/internal/admission",
		"sessiondir/internal/obs",
		"sessiondir/internal/relay",
		"sessiondir/internal/storage",
		"sessiondir/internal/fault",
	},
	Run: runDetRand,
}

func runDetRand(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch obj.Pkg().Path() {
			case "time":
				switch obj.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; deterministic packages must take time from the simulation (or an injected clock)",
						obj.Name())
				}
			case "crypto/rand":
				pass.Reportf(sel.Pos(),
					"crypto/rand.%s is nondeterministic entropy; the only sanctioned source is stats.RNG",
					obj.Name())
			case "math/rand", "math/rand/v2":
				fn, isFunc := obj.(*types.Func)
				if !isFunc {
					return true // type or const reference (rand.Rand, rand.PCG, ...)
				}
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true // method on an explicit generator
				}
				if strings.HasPrefix(obj.Name(), "New") {
					return true // constructor for an explicit generator
				}
				pass.Reportf(sel.Pos(),
					"%s.%s draws from the process-global generator; use stats.RNG (explicitly seeded) instead",
					obj.Pkg().Path(), obj.Name())
			}
			return true
		})
	}
}
