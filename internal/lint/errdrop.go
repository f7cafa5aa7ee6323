package lint

import (
	"go/ast"
	"go/types"
)

// dropNames are the transport- and recovery-layer calls whose results must
// never be discarded: Send/Recv/Close/CloseAll report delivery failures the
// protocol must react to, a Stats snapshot fetched and dropped is dead
// code hiding a forgotten assertion, and a checkpoint save, load, seal, or
// validation whose verdict vanishes silently turns crash recovery into a
// corrupt-state replay.
var dropNames = map[string]bool{
	"Send":      true,
	"Recv":      true,
	"Close":     true,
	"CloseAll":  true,
	"Stats":     true,
	"SaveRound": true,
	"Latest":    true,
	"Seal":      true,
	"Validate":  true,
	"WriteFile": true,
	"ReadFile":  true,
}

// ErrDrop forbids discarding the results of Send, Recv, Close, CloseAll and Stats
// calls in the transport and agent packages — and of the checkpoint
// persistence calls (SaveRound, Latest, Seal, Validate, WriteFile,
// ReadFile) in the recovery package — whether by a bare expression
// statement, a defer/go statement, or a blank assignment of the error
// result. Dropped transport errors were the root cause of two of PR 1's
// four TCP bugs; this keeps them from coming back.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "results of Send/Recv/Close/Stats and checkpoint Save/Load/Validate calls may not be discarded",
	Run:  runErrDrop,
}

func runErrDrop(p *Pass) {
	if !hasSegment(p.Path, blockingSegments) {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name := dropCallName(p, call); name != "" {
						p.Reportf(call.Pos(), "result of %s discarded; handle or record the error", name)
					}
				}
			case *ast.DeferStmt:
				if name := dropCallName(p, n.Call); name != "" {
					p.Reportf(n.Call.Pos(), "result of deferred %s discarded; wrap it and handle the error", name)
				}
			case *ast.GoStmt:
				if name := dropCallName(p, n.Call); name != "" {
					p.Reportf(n.Call.Pos(), "result of %s discarded by go statement; collect the error in the goroutine", name)
				}
			case *ast.AssignStmt:
				checkBlankDrop(p, n)
			}
			return true
		})
	}
}

// dropCallName returns a printable callee name when call is a guarded call
// whose results exist to be checked, and "" otherwise.
func dropCallName(p *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(p.Info, call)
	if fn == nil || !dropNames[fn.Name()] {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return ""
	}
	return fn.Name()
}

// checkBlankDrop flags blank assignments of a guarded call's results:
// either the whole result list thrown away, or the error result
// specifically blanked (`msg, _ := ep.Recv(ctx)`).
func checkBlankDrop(p *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil || !dropNames[fn.Name()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return
	}
	results := sig.Results()
	allBlank := true
	errBlanked := false
	for i, lhs := range as.Lhs {
		id, isIdent := ast.Unparen(lhs).(*ast.Ident)
		blank := isIdent && id.Name == "_"
		if !blank {
			allBlank = false
		}
		if blank && i < results.Len() && isErrorType(results.At(i).Type()) {
			errBlanked = true
		}
	}
	if allBlank {
		p.Reportf(call.Pos(), "all results of %s assigned to blank; handle or record them", fn.Name())
	} else if errBlanked {
		p.Reportf(call.Pos(), "error result of %s assigned to blank; handle or record it", fn.Name())
	}
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
