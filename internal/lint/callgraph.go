package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Graph is the whole-module static call graph the interprocedural
// analyzers share. One Graph is built per Run over every loaded package;
// nodes are the module's own function and method declarations (the only
// ones whose bodies we can see), and edges are the statically resolvable
// calls between them.
//
// Resolution rules, and their soundness caveats:
//
//   - Direct calls (pkg.F, F) and method calls on a concrete static
//     receiver type resolve exactly: go/types hands back the declared
//     *types.Func, which is devirtualization for free whenever the
//     receiver's static type is not an interface.
//   - Calls through interface values (core.Objective, Endpoint, ...)
//     resolve to the interface method's *types.Func: the edge exists
//     and can be matched by identity, but the target has no body, so
//     traversal stops there — facts do not flow into the concrete
//     implementations without a pointer analysis.
//   - Calls through function values (fields, parameters, closures
//     passed around) have no identifiable target at all and are
//     recorded only as an opaque-call count. Together with the
//     interface rule this makes the consuming analyzers deliberately
//     unsound across dynamic dispatch and reflection, trading missed
//     findings for zero false positives on the module's seams.
//   - Function literals have no identity of their own: calls inside a
//     FuncLit are attributed to the enclosing declared function, which
//     matches how the zero-alloc and determinism contracts read
//     ("everything this function's body sets in motion").
//   - Callees declared outside the loaded packages (the standard
//     library, export-data-only dependencies) appear as edge targets
//     with no Node of their own; analyzers can match them by identity
//     (time.Now) but cannot look inside them.
type Graph struct {
	nodes map[*types.Func]*GraphNode
	// byName maps funcKey(fn) to the declaring node. Each target package
	// is type-checked separately, so a cross-package callee resolves to an
	// object materialized from export data — a different *types.Func than
	// the one minted when the declaring package was checked from source.
	// Edges are canonicalized through this index at build time so both
	// identities lead to the same node.
	byName map[string]*GraphNode
}

// funcKey names a function unambiguously across independently
// type-checked views of the same package.
func funcKey(fn *types.Func) string {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	if fn.Pkg() == nil {
		return fn.FullName()
	}
	return fn.Pkg().Path() + "|" + fn.FullName()
}

// GraphNode is one declared function or method with its outgoing calls.
type GraphNode struct {
	// Fn is the declared function's type-checker object.
	Fn *types.Func
	// Decl is the declaration carrying the body.
	Decl *ast.FuncDecl
	// Pkg is the loaded package declaring the function.
	Pkg *Package
	// Calls lists the resolved outgoing calls in source order.
	Calls []GraphCall
	// Opaque counts the calls whose callee could not be resolved to any
	// object: function values and method values. (Interface dispatch
	// resolves to the body-less interface method and lands in Calls.) A
	// nonzero count marks every transitive fact about this node as
	// lower-bound only.
	Opaque int
}

// GraphCall is one resolved call edge.
type GraphCall struct {
	// Pos is the call expression's position in the caller.
	Pos token.Pos
	// Callee is the resolved target. It always has an object; it has a
	// body (a Graph node) only when declared in a loaded package.
	Callee *types.Func
}

// BuildGraph indexes every function declaration of the loaded packages
// and resolves the call edges between them.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{nodes: make(map[*types.Func]*GraphNode), byName: make(map[string]*GraphNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &GraphNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.nodes[fn] = node
				g.byName[funcKey(fn)] = node
			}
		}
	}
	for _, node := range g.nodes {
		g.collectCalls(node)
	}
	return g
}

// collectCalls walks one declaration's body recording every call. Calls
// inside function literals are attributed to the enclosing declaration.
// Callees declared in a loaded package are canonicalized to the
// source-checked object, so one function has one identity module-wide.
func (g *Graph) collectCalls(node *GraphNode) {
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isTypeConversion(info, call) || isBuiltinCall(info, call) {
			return true
		}
		if fn := calleeFunc(info, call); fn != nil {
			if canon := g.byName[funcKey(fn)]; canon != nil {
				fn = canon.Fn
			}
			node.Calls = append(node.Calls, GraphCall{Pos: call.Pos(), Callee: fn})
		} else {
			node.Opaque++
		}
		return true
	})
	sort.SliceStable(node.Calls, func(i, j int) bool { return node.Calls[i].Pos < node.Calls[j].Pos })
}

// isTypeConversion reports whether call is a conversion like T(x).
func isTypeConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// isBuiltinCall reports whether call invokes a language builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// NodeOf returns the graph node declaring fn, or nil when fn has no body
// in the loaded packages (external callee, interface method). Both the
// source-checked object and its export-data twin resolve to the node.
func (g *Graph) NodeOf(fn *types.Func) *GraphNode {
	if g == nil || fn == nil {
		return nil
	}
	if n := g.nodes[fn]; n != nil {
		return n
	}
	return g.byName[funcKey(fn)]
}

// Nodes returns every node sorted by (package path, name, position) so
// iteration order — and everything derived from it, like the -graph dump
// and reachability tie-breaks — is independent of map order.
func (g *Graph) Nodes() []*GraphNode {
	out := make([]*GraphNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pkg.Path != b.Pkg.Path {
			return a.Pkg.Path < b.Pkg.Path
		}
		if a.Fn.FullName() != b.Fn.FullName() {
			return a.Fn.FullName() < b.Fn.FullName()
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	return out
}

// reachStep is one hop of a breadth-first walk: the function arrived at
// and the call edge that got there.
type reachStep struct {
	fn   *types.Func
	from *types.Func // caller (nil for the root)
	pos  token.Pos   // position of the call in the caller
}

// Walk runs a breadth-first traversal of the resolved call edges from
// root (which must be a node). visit is invoked once per distinct
// reachable callee in deterministic (source/BFS) order, with the full
// call path from the root; returning false prunes the walk below that
// callee — its own callees are not traversed through it, though they may
// still be reached along other paths. The root itself is not visited,
// and each function is visited at most once (the first BFS path wins).
func (g *Graph) Walk(root *types.Func, visit func(fn *types.Func, path []GraphCall) bool) {
	rootNode := g.NodeOf(root)
	if rootNode == nil {
		return
	}
	seen := map[*types.Func]bool{root: true}
	parent := map[*types.Func]reachStep{}
	queue := []*types.Func{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := g.NodeOf(cur)
		if node == nil {
			continue
		}
		for _, call := range node.Calls {
			if seen[call.Callee] {
				continue
			}
			seen[call.Callee] = true
			parent[call.Callee] = reachStep{fn: call.Callee, from: cur, pos: call.Pos}
			if visit(call.Callee, g.pathTo(root, call.Callee, parent)) {
				queue = append(queue, call.Callee)
			}
		}
	}
}

// pathTo reconstructs the BFS call path from root to fn as a sequence of
// call edges (first edge leaves the root).
func (g *Graph) pathTo(root, fn *types.Func, parent map[*types.Func]reachStep) []GraphCall {
	var rev []GraphCall
	for cur := fn; cur != root; {
		step, ok := parent[cur]
		if !ok {
			break
		}
		rev = append(rev, GraphCall{Pos: step.pos, Callee: cur})
		cur = step.from
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// renderPath formats a call path as "a → b → c" using short names.
func renderPath(root *types.Func, path []GraphCall) string {
	parts := make([]string, 0, len(path)+1)
	parts = append(parts, shortFuncName(root))
	for _, c := range path {
		parts = append(parts, shortFuncName(c.Callee))
	}
	return strings.Join(parts, " -> ")
}

// shortFuncName renders fn as name or Type.name, package-qualified when
// the function is not from the module's current package view (kept short
// on purpose — diagnostics carry positions for the long form).
func shortFuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isPtr := types.Unalias(t).(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := types.Unalias(t).(*types.Named); isNamed {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// DumpGraph writes the resolved call graph in a stable text form, one
// line per edge ("caller -> callee [opaque N]" headers per node), for
// fapvet's -graph debug flag.
func DumpGraph(g *Graph) string {
	var b strings.Builder
	for _, node := range g.Nodes() {
		pos := node.Pkg.Fset.Position(node.Decl.Pos())
		fmt.Fprintf(&b, "%s (%s:%d)", node.Fn.FullName(), pos.Filename, pos.Line)
		if node.Opaque > 0 {
			fmt.Fprintf(&b, " [opaque calls: %d]", node.Opaque)
		}
		b.WriteString("\n")
		for _, call := range node.Calls {
			kind := "external"
			if g.NodeOf(call.Callee) != nil {
				kind = "module"
			}
			fmt.Fprintf(&b, "  -> %s (%s)\n", call.Callee.FullName(), kind)
		}
	}
	return b.String()
}
