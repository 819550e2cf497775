package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"taskvine/tools/vinelint/internal/lint"
)

// EventBlock guards the latency contract of the two single-threaded
// message loops: the manager's event loop (Manager.handleEvent /
// handleBatch own all scheduling state) and the worker's connection read
// loop. Every millisecond one of those loops spends blocked is a
// millisecond during which no task is scheduled and no worker message is
// drained, so no blocking construct may be synchronously reachable from
// them:
//
//   - time.Sleep
//   - filesystem calls (os.Open/ReadFile/Stat/Rename/...)
//   - network dials, listens, and net/http calls
//   - bulk protocol I/O: Conn.SendPayload, Conn.Recv (except the loop's
//     own receive in the root function), and protocol.Dial. Small
//     control-frame Sends are permitted: they queue the frame for the
//     connection's writer goroutine instead of waiting on the socket.
//   - channel sends, unless the send is a select case with a default
//     (non-blocking), or the channel arrived as a parameter of the
//     enclosing function (reply channels are caller-supplied and sized
//     for exactly one message)
//
// Reachability follows same-package calls only, skipping go statements
// and function literals that are merely passed along: work handed to
// another goroutine is exactly the sanctioned fix. Sites that are
// provably bounded carry a `// eventloop-ok: <reason>` annotation.
var EventBlock = &lint.Analyzer{
	Name: "eventblock",
	Doc: `flag blocking I/O, sleeps, and unbounded channel sends reachable
from the manager event loop or the worker message loop unless annotated
with // eventloop-ok: <reason>`,
	Run: runEventBlock,
}

// eventblockRoots names the loop-body functions per package scope. The
// manager's loop dispatches through handleBatch/handleEvent; the worker's
// through readLoop.
var eventblockRoots = map[string][]string{
	"internal/core":   {"handleEvent", "handleBatch"},
	"internal/worker": {"readLoop"},
}

// osBlocking is the set of os-package calls that hit the filesystem.
var osBlocking = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true,
	"Stat": true, "Lstat": true, "Readlink": true,
	"Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Rename": true, "Remove": true, "RemoveAll": true,
	"Chmod": true, "Truncate": true, "Link": true, "Symlink": true,
}

func runEventBlock(pass *lint.Pass) error {
	var rootNames []string
	for seg, names := range eventblockRoots {
		if lint.PathHasSegment(pass.Pkg.Path, seg) {
			rootNames = names
		}
	}
	if rootNames == nil {
		return nil
	}
	cg := pass.Prog.CallGraph()

	// Seed the walk with this package's root functions.
	isRootName := make(map[string]bool)
	for _, n := range rootNames {
		isRootName[n] = true
	}
	// reachedFrom maps each synchronously reachable function to the loop
	// roots that reach it, for diagnostics that name their loop.
	reachedFrom := make(map[*lint.CGNode]map[string]bool)
	var queue []*lint.CGNode
	for _, node := range cg.Nodes {
		if node.Pkg == pass.Pkg && isRootName[node.Decl.Name.Name] {
			reachedFrom[node] = map[string]bool{node.Decl.Name.Name: true}
			queue = append(queue, node)
		}
	}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for _, e := range node.Out {
			// A go edge hands the work to another goroutine — that is the
			// sanctioned fix, not a finding. Cross-package calls are out of
			// scope: the loop packages own their blocking discipline, and
			// helper packages (cache, tardir) are audited at their call
			// sites, not their internals.
			if e.Go || e.Callee.Pkg != pass.Pkg {
				continue
			}
			if reachedFrom[e.Callee] == nil {
				reachedFrom[e.Callee] = make(map[string]bool)
			}
			grew := false
			for r := range reachedFrom[node] {
				if !reachedFrom[e.Callee][r] {
					reachedFrom[e.Callee][r] = true
					grew = true
				}
			}
			if grew {
				queue = append(queue, e.Callee)
			}
		}
	}

	ok := markerLines(pass, "eventloop-ok:")
	for node, roots := range reachedFrom {
		checkEventFunc(pass, node, rootsLabel(roots), isRootName[node.Decl.Name.Name], ok)
	}
	return nil
}

// rootsLabel renders the set of loop roots reaching a function.
func rootsLabel(roots map[string]bool) string {
	names := make([]string, 0, len(roots))
	for r := range roots {
		names = append(names, r)
	}
	sort.Strings(names)
	return strings.Join(names, "/")
}

// checkEventFunc scans one reachable function for blocking constructs.
func checkEventFunc(pass *lint.Pass, node *lint.CGNode, roots string, isRoot bool, ok map[string]bool) {
	fname := node.Decl.Name.Name
	// Sends appearing as cases of a select that has a default clause are
	// non-blocking by construction.
	nonblocking := make(map[ast.Stmt]bool)
	lint.WalkSync(node.Decl.Body, func(n ast.Node) bool {
		sel, okSel := n.(*ast.SelectStmt)
		if !okSel {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, okCC := c.(*ast.CommClause); okCC && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range sel.Body.List {
				if cc, okCC := c.(*ast.CommClause); okCC && cc.Comm != nil {
					nonblocking[cc.Comm] = true
				}
			}
		}
		return true
	})
	params := paramObjects(pass, node.Decl)

	lint.WalkSync(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if what := bannedCall(pass, n, isRoot); what != "" && !markedOK(pass, ok, n.Pos()) {
				pass.Report(n.Pos(),
					"%s in %s is synchronously reachable from the %s loop: move it to a helper goroutine or annotate // eventloop-ok: <reason>",
					what, fname, roots)
			}
		case *ast.SendStmt:
			if nonblocking[n] || chanFromParam(pass, params, n.Chan) || markedOK(pass, ok, n.Pos()) {
				return true
			}
			pass.Report(n.Pos(),
				"channel send in %s may block the %s loop: guard it with a select+default, send on a caller-supplied reply channel, or annotate // eventloop-ok: <reason>",
				fname, roots)
		}
		return true
	})
}

// bannedCall classifies a call as a blocking construct, returning a short
// label for the diagnostic or "" when the call is fine.
func bannedCall(pass *lint.Pass, call *ast.CallExpr, isRoot bool) string {
	fn := lint.CalleeFunc(pass.Pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == "time" && name == "Sleep":
		return "time.Sleep"
	case path == "os" && osBlocking[name]:
		return "os." + name
	case path == "net" && (strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") || strings.HasPrefix(name, "Lookup")):
		return "net." + name
	case path == "net/http":
		return "net/http." + name
	case lint.PathHasSegment(path, "internal/protocol"):
		switch name {
		case "Recv":
			if isRoot {
				return "" // the loop's own message pump
			}
			return "protocol Recv"
		case "SendPayload":
			return "protocol SendPayload (bulk transfer)"
		case "Dial":
			return "protocol Dial"
		}
	}
	return ""
}

// paramObjects collects the type objects of a declaration's parameters.
func paramObjects(pass *lint.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := pass.Pkg.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// chanFromParam reports whether the channel expression's leftmost base
// identifier is a parameter of the enclosing function: reply channels
// handed in by the caller are sized by the caller, so a send on them is
// the caller's latency contract, not the loop's.
func chanFromParam(pass *lint.Pass, params map[types.Object]bool, ch ast.Expr) bool {
	for {
		switch e := ch.(type) {
		case *ast.ParenExpr:
			ch = e.X
		case *ast.SelectorExpr:
			ch = e.X
		case *ast.IndexExpr:
			ch = e.X
		case *ast.Ident:
			return params[pass.Pkg.Info.Uses[e]]
		default:
			return false
		}
	}
}
