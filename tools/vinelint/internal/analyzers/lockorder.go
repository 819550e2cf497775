package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"taskvine/tools/vinelint/internal/lint"
)

// LockOrder builds the module-wide lock-acquisition graph over the same
// mutexes the lockguard convention already names, and reports cycles: if
// one code path acquires A then B while another acquires B then A, the
// two paths can deadlock under the right interleaving even though each
// runs correctly alone. Enforcing the ordering discipline while the graph
// is small keeps every lock added later honest.
//
// Locks are identified structurally — "pkg.Type.field" for a mutex
// struct field, "pkg.var" for a package-level mutex — which deliberately
// merges all instances of a type: the analysis proves ordering between
// lock *classes*, the same granularity lockdep uses. Within one function
// the held set tracks Lock/Unlock pairs in source order (a deferred
// Unlock keeps the lock held to the end of the body); across calls, a
// callee's transitive acquisitions (excluding goroutine launches, which
// start with an empty held set) are ordered after everything held at the
// call site. Re-acquiring the same lock class while holding it inside a
// single function is reported as a self-deadlock; the same pattern
// through a call chain is not, because two instances of one type are
// indistinguishable statically.
//
// Findings are warnings: a cycle is a structural risk, not a proven
// deadlock. Break the cycle or, if two lock classes are provably never
// held by one goroutine, suppress with //vinelint:ignore lockorder and a
// reason.
var LockOrder = &lint.Analyzer{
	Name:        "lockorder",
	Doc:         `report cycles in the module-wide mutex acquisition-order graph`,
	Severity:    lint.SeverityWarning,
	WholeModule: true,
	Run:         runLockOrder,
}

// lockEdge is one observed "held A while acquiring B" ordering, with a
// witness site for the diagnostic.
type lockEdge struct {
	pos token.Pos
	fn  string
}

// lockFacts accumulates the per-function and module-wide acquisition
// facts.
type lockFacts struct {
	// direct[fn] = lock classes the function acquires in its own body.
	direct map[*lint.CGNode]map[string]bool
	// calls[fn] = call sites with a non-empty held set.
	calls map[*lint.CGNode][]heldCall
	// edges[a][b] = witness for "a held while b acquired".
	edges map[string]map[string]lockEdge
}

type heldCall struct {
	held   []string
	callee *lint.CGNode
	pos    token.Pos
	fn     string
}

func runLockOrder(pass *lint.Pass) error {
	// Whole-module: run once, from the first pass.
	if len(pass.All) == 0 || pass.Pkg != pass.All[0] {
		return nil
	}
	cg := pass.Prog.CallGraph()
	// Iterate declarations in source-position order: facts.edges keeps the
	// first witness per edge, so the walk order must be deterministic for
	// diagnostics to be stable across runs.
	ordered := make([]*lint.CGNode, 0, len(cg.Nodes))
	for _, node := range cg.Nodes {
		ordered = append(ordered, node)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].Decl.Pos() < ordered[j].Decl.Pos()
	})
	facts := &lockFacts{
		direct: make(map[*lint.CGNode]map[string]bool),
		calls:  make(map[*lint.CGNode][]heldCall),
		edges:  make(map[string]map[string]lockEdge),
	}
	for _, node := range ordered {
		collectLockFacts(pass, node, facts)
	}

	// Transitive acquisitions per function over synchronous call edges: a
	// go'd callee runs on a fresh goroutine with nothing held, so its
	// acquisitions impose no order on ours.
	acq := make(map[*lint.CGNode]map[string]bool)
	for node, direct := range facts.direct {
		acq[node] = make(map[string]bool)
		for id := range direct {
			acq[node][id] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, node := range ordered {
			for _, e := range node.Out {
				if e.Go {
					continue
				}
				for id := range acq[e.Callee] {
					if acq[node] == nil {
						acq[node] = make(map[string]bool)
					}
					if !acq[node][id] {
						acq[node][id] = true
						changed = true
					}
				}
			}
		}
	}

	// Cross-function edges: everything held at a call site precedes
	// everything the callee may acquire. Self-edges are skipped here —
	// "holding T.mu while calling something that locks T.mu" is usually
	// a different instance of T, which lock classes cannot distinguish.
	for _, node := range ordered {
		for _, site := range facts.calls[node] {
			for id := range acq[site.callee] {
				for _, h := range site.held {
					if h == id {
						continue
					}
					addLockEdge(facts, h, id, site.pos, site.fn)
				}
			}
		}
	}

	reportLockCycles(pass, facts)
	return nil
}

// collectLockFacts walks one function body in source order, tracking the
// held set through Lock/Unlock pairs.
func collectLockFacts(pass *lint.Pass, node *lint.CGNode, facts *lockFacts) {
	info := node.Pkg.Info
	var held []string
	fname := node.Decl.Name.Name
	lint.WalkSync(node.Decl.Body, func(n ast.Node) bool {
		if _, isDefer := n.(*ast.DeferStmt); isDefer {
			// A deferred Unlock releases at return: the lock stays held
			// for the rest of the body, which is exactly what the held
			// set already says. Deferred acquisitions are vanishingly
			// rare and ignored.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			// Still record module callees for cross-function ordering.
			recordHeldCall(pass, info, node, call, held, fname, facts)
			return true
		}
		op := sel.Sel.Name
		if op != "Lock" && op != "RLock" && op != "Unlock" && op != "RUnlock" {
			recordHeldCall(pass, info, node, call, held, fname, facts)
			return true
		}
		id := lockID(info, sel)
		if id == "" {
			return true
		}
		switch op {
		case "Lock", "RLock":
			reacquired := false
			for _, h := range held {
				if h == id {
					pass.Report(call.Pos(),
						"%s is re-acquired in %s while already held: self-deadlock on a non-reentrant mutex", id, fname)
					reacquired = true
					continue
				}
				addLockEdge(facts, h, id, call.Pos(), fname)
			}
			if facts.direct[node] == nil {
				facts.direct[node] = make(map[string]bool)
			}
			facts.direct[node][id] = true
			if !reacquired {
				held = append(held, id)
			}
		case "Unlock", "RUnlock":
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == id {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		}
		return true
	})
}

// recordHeldCall remembers a call made while locks are held, for the
// cross-function ordering phase.
func recordHeldCall(pass *lint.Pass, info *types.Info, node *lint.CGNode, call *ast.CallExpr, held []string, fname string, facts *lockFacts) {
	if len(held) == 0 {
		return
	}
	fn := lint.CalleeFunc(info, call)
	if fn == nil {
		return
	}
	callee := pass.Prog.CallGraph().Node(fn)
	if callee == nil {
		return
	}
	facts.calls[node] = append(facts.calls[node], heldCall{
		held:   append([]string(nil), held...),
		callee: callee,
		pos:    call.Pos(),
		fn:     fname,
	})
}

// lockID names the lock class of a Lock/Unlock receiver expression, or ""
// when the mutex has no stable identity (locals, parameters).
func lockID(info *types.Info, sel *ast.SelectorExpr) string {
	t := info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if !isMutexType(t) {
		// x.Lock() through an embedded sync.Mutex: the named type itself
		// is the lock class.
		if named := namedOf(t); named != nil && embedsMutex(named) {
			return typeID(named)
		}
		return ""
	}
	switch base := sel.X.(type) {
	case *ast.Ident:
		obj := info.Uses[base]
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		// Package-level mutex var.
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return ""
	case *ast.SelectorExpr:
		// recv.mu (or nested.field.mu): key by the immediate owner type.
		if named := namedOf(info.TypeOf(base.X)); named != nil {
			return typeID(named) + "." + base.Sel.Name
		}
	}
	return ""
}

// isMutexType reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return lint.TypeIs(t, "sync", "Mutex") || lint.TypeIs(t, "sync", "RWMutex")
}

// namedOf strips one pointer and returns the named type, if any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// typeID renders pkgpath.TypeName.
func typeID(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// embedsMutex reports whether a named struct type embeds sync.Mutex or
// sync.RWMutex.
func embedsMutex(named *types.Named) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && isMutexType(f.Type()) {
			return true
		}
	}
	return false
}

// addLockEdge records "a held while acquiring b" with the first witness
// winning (stable across runs because callers iterate deterministically
// ordered syntax).
func addLockEdge(facts *lockFacts, a, b string, pos token.Pos, fn string) {
	if facts.edges[a] == nil {
		facts.edges[a] = make(map[string]lockEdge)
	}
	if _, dup := facts.edges[a][b]; !dup {
		facts.edges[a][b] = lockEdge{pos: pos, fn: fn}
	}
}

// reportLockCycles finds cycles in the acquisition graph and reports each
// once, anchored at its lexicographically smallest node.
func reportLockCycles(pass *lint.Pass, facts *lockFacts) {
	nodes := make([]string, 0, len(facts.edges))
	for a := range facts.edges {
		nodes = append(nodes, a)
	}
	sort.Strings(nodes)

	seen := make(map[string]bool) // canonical cycle strings already reported
	var path []string
	onPath := make(map[string]bool)
	var dfs func(n string)
	dfs = func(n string) {
		path = append(path, n)
		onPath[n] = true
		succs := make([]string, 0, len(facts.edges[n]))
		for b := range facts.edges[n] {
			succs = append(succs, b)
		}
		sort.Strings(succs)
		for _, b := range succs {
			if onPath[b] {
				// Cycle: path[i..] + b closes back on b.
				start := 0
				for i, p := range path {
					if p == b {
						start = i
						break
					}
				}
				cycle := append([]string(nil), path[start:]...)
				canon := canonicalCycle(cycle)
				if !seen[canon] {
					seen[canon] = true
					first := cycle[0]
					next := cycle[(1)%len(cycle)]
					if len(cycle) == 1 {
						next = first
					}
					e := facts.edges[first][next]
					pass.Report(e.pos,
						"lock ordering cycle %s -> %s (edge taken in %s): acquire these locks in one global order or break the cycle",
						strings.Join(cycle, " -> "), cycle[0], e.fn)
				}
				continue
			}
			dfs(b)
		}
		onPath[n] = false
		path = path[:len(path)-1]
	}
	for _, n := range nodes {
		dfs(n)
	}
}

// canonicalCycle rotates a cycle so its smallest node comes first, giving
// a stable dedup key.
func canonicalCycle(cycle []string) string {
	min := 0
	for i, n := range cycle {
		if n < cycle[min] {
			min = i
		}
	}
	rotated := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
	return fmt.Sprintf("%v", rotated)
}
