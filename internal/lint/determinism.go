package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// numericSegments names the packages whose results must be bit-reproducible:
// the solver core, the cost models, and every experiment driver that feeds a
// figure. A package is "numeric" when any segment of its import path matches.
var numericSegments = map[string]bool{
	"core":        true,
	"costmodel":   true,
	"sweep":       true,
	"experiments": true,
	"multicopy":   true,
	"replication": true,
	"recovery":    true, // checkpoints must replay bit-identically
	"catalog":     true, // solved catalogs must be byte-identical across worker counts
	"gossip":      true, // tree folds and exchange schedules must replay bit-identically
}

// randConstructors are the math/rand functions that build explicit seeded
// sources rather than drawing from the process-wide one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// solverRoots names the deterministic solver entry points (Theorem 2's
// iteration and everything batched on top of it) whose *entire reachable
// call trees* must stay free of nondeterminism, regardless of which
// package a helper lives in. A function is a root when its package path
// has the segment, its receiver's type name matches, and its name is
// listed.
var solverRoots = []struct {
	segment string
	recv    string
	names   map[string]bool
}{
	{"core", "Allocator", map[string]bool{"Run": true, "RunWithScratch": true, "Solve": true}},
	{"core", "WarmSolver", map[string]bool{"Solve": true, "SolveWarm": true}},
	{"catalog", "Catalog", map[string]bool{"SolveCold": true, "ReSolve": true, "Sense": true, "Drift": true}},
}

// Determinism forbids the three nondeterminism sources that have bitten
// numeric reproductions of the paper: wall-clock reads, the global
// math/rand source, and floating-point accumulation driven by map iteration
// order (the exact bug class behind PR 2's Fig6 α-grid fix — float results
// must not depend on traversal order). Two layers:
//
//   - Locally, every function in a numeric package (numericSegments) is
//     checked for the three constructs, as before.
//   - Transitively, the solver entry points (solverRoots) are
//     taint-walked over the module call graph: a helper in a
//     *non-numeric* package that reads the clock, draws from the global
//     source, or accumulates floats over a map range poisons every
//     solver that can reach it, and is reported at the solver's first
//     call edge toward it. Helpers in numeric packages are already
//     flagged at their own site by the local layer and are not re-blamed.
//     Interface and function-value calls are opaque (see BuildGraph).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now, global math/rand, and map-ordered float accumulation in numeric packages and everywhere solver entry points can reach",
	Run:  runDeterminism,
}

func runDeterminism(p *Pass) {
	if hasSegment(p.Path, numericSegments) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkDeterministicCall(p, n)
				case *ast.RangeStmt:
					if _, ok := p.Info.TypeOf(n.X).Underlying().(*types.Map); ok {
						checkMapRangeAccum(p, n)
					}
				}
				return true
			})
		}
	}
	runDeterminismTaint(p)
}

// runDeterminismTaint walks the call graph from every solver root
// declared in the current package.
func runDeterminismTaint(p *Pass) {
	if p.Graph == nil {
		return
	}
	facts := newTaintFacts()
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isSolverRoot(p, fd) {
				continue
			}
			root, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			p.Graph.Walk(root, func(fn *types.Func, path []GraphCall) bool {
				node := p.Graph.NodeOf(fn)
				if node == nil {
					return true // external callee: identity checks happen in taintOf at the caller
				}
				if hasSegment(node.Pkg.Path, numericSegments) {
					return true // locally checked at its own site; keep descending
				}
				if desc, tainted := facts.taintOf(node); tainted {
					p.Reportf(path[0].Pos, "solver entry point %s reaches nondeterminism: %s (path: %s)",
						shortFuncName(root), desc, renderPath(root, path))
					return false
				}
				return true
			})
		}
	}
}

// isSolverRoot reports whether fd matches a solverRoots entry for the
// current package.
func isSolverRoot(p *Pass, fd *ast.FuncDecl) bool {
	for _, spec := range solverRoots {
		if !hasSegment(p.Path, map[string]bool{spec.segment: true}) {
			continue
		}
		if !spec.names[fd.Name.Name] {
			continue
		}
		if recvTypeName(p.Info, fd) == spec.recv {
			return true
		}
	}
	return false
}

// recvTypeName returns the bare type name of fd's receiver ("" for plain
// functions).
func recvTypeName(info *types.Info, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return ""
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func checkDeterministicCall(p *Pass, call *ast.CallExpr) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			p.Reportf(call.Pos(), "time.Now in a numeric package makes results run-dependent; take timestamps outside the numeric path")
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on an explicit *rand.Rand are fine
		}
		if randConstructors[fn.Name()] {
			return
		}
		p.Reportf(call.Pos(), "%s.%s draws from the shared process-wide source; use an explicit seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
	}
}

// checkMapRangeAccum flags floating-point accumulations anywhere under a
// range-over-map body: the iteration order varies run to run, and float
// addition does not commute under reordering, so the accumulated value is
// nondeterministic.
func checkMapRangeAccum(p *Pass, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if len(as.Lhs) == 1 && isFloat(p.Info.TypeOf(as.Lhs[0])) {
				p.Reportf(as.Pos(), "floating-point accumulation inside range over a map depends on iteration order; iterate over sorted keys")
			}
		case token.ASSIGN:
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.Info.Uses[id]
				if obj == nil || !isFloat(obj.Type()) {
					continue
				}
				if _, isBin := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr); isBin && exprUsesObject(p.Info, as.Rhs[i], obj) {
					p.Reportf(as.Pos(), "floating-point accumulation inside range over a map depends on iteration order; iterate over sorted keys")
				}
			}
		}
		return true
	})
}

// taintFacts lazily computes, per declared function, the first
// nondeterminism source its own body contains — the same three constructs
// the local layer flags, but judged for any package so the solver-root
// walk can blame helpers outside the numeric set.
type taintFacts struct {
	memo map[*types.Func]allocFact // reuse the (desc, has) pair
}

func newTaintFacts() *taintFacts { return &taintFacts{memo: make(map[*types.Func]allocFact)} }

func (tf *taintFacts) taintOf(node *GraphNode) (string, bool) {
	if fact, ok := tf.memo[node.Fn]; ok {
		return fact.desc, fact.has
	}
	info := node.Pkg.Info
	var fact allocFact
	record := func(what string, pos token.Pos) {
		if fact.has {
			return
		}
		position := node.Pkg.Fset.Position(pos)
		fact = allocFact{desc: fmt.Sprintf("%s at %s:%d", what, position.Filename, position.Line), has: true}
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if fact.has {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" {
					record("time.Now", n.Pos())
				}
			case "math/rand", "math/rand/v2":
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() != nil || randConstructors[fn.Name()] {
					return true
				}
				record(fn.Pkg().Name()+"."+fn.Name()+" (shared process-wide source)", n.Pos())
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); !ok {
				return true
			}
			if pos, found := findMapRangeAccum(info, n); found {
				record("float accumulation over map range", pos)
			}
		}
		return true
	})
	tf.memo[node.Fn] = fact
	return fact.desc, fact.has
}

// findMapRangeAccum is checkMapRangeAccum's fact form: it returns the
// position of the first order-sensitive float accumulation under a
// range-over-map body instead of reporting it.
func findMapRangeAccum(info *types.Info, rng *ast.RangeStmt) (token.Pos, bool) {
	var at token.Pos
	found := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if len(as.Lhs) == 1 && isFloat(info.TypeOf(as.Lhs[0])) {
				at, found = as.Pos(), true
			}
		case token.ASSIGN:
			if len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[id]
				if obj == nil || !isFloat(obj.Type()) {
					continue
				}
				if _, isBin := ast.Unparen(as.Rhs[i]).(*ast.BinaryExpr); isBin && exprUsesObject(info, as.Rhs[i], obj) {
					at, found = as.Pos(), true
				}
			}
		}
		return true
	})
	return at, found
}

// exprUsesObject reports whether obj is referenced anywhere in e.
func exprUsesObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
