package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"taskvine/tools/vinelint/internal/lint"
)

// SimDeterminism enforces that simulator code is bit-for-bit reproducible:
// the simulated clock and seeded RNGs are the only sources of time and
// randomness, and map iteration order never leaks into results.
var SimDeterminism = &lint.Analyzer{
	Name: "simdeterminism",
	Doc: `forbid wall-clock time, global randomness, and order-dependent map
iteration in simulator packages (internal/sim, internal/experiments,
internal/workloads), in the scheduling engine they run (internal/sched)
and in the fault-injection engine (internal/chaos), so that every
simulation and chaos run is reproducible`,
	Run: runSimDeterminism,
}

// simScopes are the import-path segments whose packages must be
// deterministic. internal/sched is included because simulated scheduling
// decisions run there, and internal/chaos because injected fault schedules
// must replay identically for a fixed seed in both substrates.
var simScopes = []string{"internal/sim", "internal/experiments", "internal/workloads", "internal/sched", "internal/chaos"}

// bannedTimeFuncs are the package-level time functions that read or depend
// on the wall clock. Conversions and constructors (time.Duration,
// time.Unix, time.Date) are fine.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func runSimDeterminism(pass *lint.Pass) error {
	inScope := false
	for _, s := range simScopes {
		if lint.PathHasSegment(pass.Pkg.Path, s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkBannedCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n, file)
			}
			return true
		})
	}
	return nil
}

// checkBannedCall flags calls to wall-clock time functions and to the
// global (process-seeded) math/rand generators.
func checkBannedCall(pass *lint.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if bannedTimeFuncs[sel.Sel.Name] {
			pass.Report(call.Pos(),
				"time.%s in simulator code: use the simulated clock (engine time) instead",
				sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		// Any package-level call uses the shared global source, which is
		// not controlled by the simulation seed.
		pass.Report(call.Pos(),
			"global rand.%s in simulator code: use a seeded *rand.Rand owned by the simulation",
			sel.Sel.Name)
	}
}

// checkMapRange flags `for ... := range m` over a map when the loop body
// lets iteration order escape: either by appending to a variable declared
// outside the loop that is never subsequently sorted in the enclosing
// function, or by calling side-effecting functions from the body.
func checkMapRange(pass *lint.Pass, rng *ast.RangeStmt, file *ast.File) {
	t := pass.Pkg.Info.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	fn := enclosingFunc(file, rng)

	var appended []string // textual form of append targets
	sideEffect := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isB := pass.Pkg.Info.Uses[id].(*types.Builtin); isB && len(n.Args) > 0 {
					appended = append(appended, types.ExprString(n.Args[0]))
				}
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && !isPureish(pass, call) {
				sideEffect = true
			}
		}
		return true
	})

	if sideEffect {
		pass.Report(rng.Pos(),
			"map iteration with side-effecting calls in the body: iteration order is random; collect keys and sort first")
		return
	}
	for _, target := range appended {
		if fn != nil && sortedLater(pass, fn, target, rng) {
			continue
		}
		pass.Report(rng.Pos(),
			"map iteration appends to %s without a later sort: result order depends on map iteration order", target)
	}
}

// isPureish reports whether a call in a map-range body is harmless from a
// determinism standpoint: builtins (delete, len, ...), and method calls on
// the loop variables themselves tend to be accumulation patterns we accept
// only for builtins — everything else counts as a side effect.
func isPureish(pass *lint.Pass, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isB := pass.Pkg.Info.Uses[id].(*types.Builtin); isB {
			return true
		}
	}
	return false
}

// enclosingFunc finds the innermost function declaration or literal
// containing pos.
func enclosingFunc(file *ast.File, pos ast.Node) ast.Node {
	var best ast.Node
	p := pos.Pos()
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if n.Pos() <= p && p < n.End() {
				best = n
			}
		}
		return true
	})
	return best
}

// sortedLater reports whether, after pos, the enclosing function passes
// target (by textual match) to a sort.* or slices.Sort* call — the
// canonical way to launder map-iteration order back into determinism.
func sortedLater(pass *lint.Pass, fn ast.Node, target string, after ast.Node) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		path := pn.Imported().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		if !strings.HasPrefix(sel.Sel.Name, "Sort") && !strings.HasPrefix(sel.Sel.Name, "Slice") && !strings.HasPrefix(sel.Sel.Name, "Strings") && !strings.HasPrefix(sel.Sel.Name, "Ints") {
			return true
		}
		for _, arg := range call.Args {
			if argMatchesTarget(types.ExprString(arg), target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// argMatchesTarget compares a sort argument against an append target,
// tolerating an address-of or slicing wrapper.
func argMatchesTarget(arg, target string) bool {
	arg = strings.TrimPrefix(arg, "&")
	if arg == target {
		return true
	}
	return strings.HasPrefix(arg, fmt.Sprintf("%s[", target))
}
