package lint

import (
	"go/ast"
	"go/types"
)

// CtxGuard keeps the supervised, long-running loops cancellable: inside
// any function that receives a context.Context, an unbounded loop
// (`for { ... }` or `for cond { ... }`) must observe the context on each
// iteration — select on ctx.Done(), check ctx.Err(), call a function
// that takes the context, or receive from a channel bound from
// ctx.Done(). A loop that ignores its context keeps a supervised role
// alive after the watchdog tears the run down, which is exactly the hang
// the PR 5 supervision plane exists to prevent.
//
// The check is flow-sensitive where it matters: the function's CFG
// decides whether the loop can actually iterate. A `for { ...; return }`
// body that leaves the function on every path has no back edge and is
// not reported. Counter-stepped loops (`for i := 0; i < n; i++`) and
// range loops are bounded by construction and skipped.
var CtxGuard = &Analyzer{
	Name: "ctxguard",
	Doc:  "unbounded loops in ctx-taking functions must observe cancellation",
	Run:  runCtxGuard,
}

func runCtxGuard(pass *Pass) {
	pass.funcNodes(func(fn ast.Node, body *ast.BlockStmt) {
		ctxObjs := ctxParams(pass, fn)
		if len(ctxObjs) == 0 {
			return
		}
		// Also trust channels derived from the context: done := ctx.Done()
		// followed by <-done observes cancellation.
		addDoneChans(pass, body, ctxObjs)

		inspectShallow(body, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			// Bounded shape: a three-clause counter loop steps toward its
			// condition; range loops never reach here (RangeStmt).
			if loop.Cond != nil && loop.Post != nil {
				return true
			}
			if loopObservesCtx(pass, loop, ctxObjs) {
				return true
			}
			cfg := pass.CFGOf(fn)
			if cfg == nil || !cfg.HasBackEdge(loop) {
				return true // exits on every path; not really a loop
			}
			pass.Reportf(loop.Pos(),
				"unbounded loop in ctx-taking %s never observes ctx: select on ctx.Done(), check ctx.Err(), or pass ctx to a callee",
				cfg.Name)
			return true
		})
	})
}

// ctxParams returns the function's context.Context-typed parameters.
func ctxParams(pass *Pass, fn ast.Node) map[types.Object]bool {
	var ft *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
	case *ast.FuncLit:
		ft = fn.Type
	default:
		return nil
	}
	objs := make(map[types.Object]bool)
	if ft.Params == nil {
		return objs
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := pass.Info.Defs[name]
			if obj != nil && isContextType(obj.Type()) {
				objs[obj] = true
			}
		}
	}
	return objs
}

// addDoneChans extends the observed set with variables assigned from
// <ctx>.Done() anywhere in the function body.
func addDoneChans(pass *Pass, body *ast.BlockStmt, ctxObjs map[types.Object]bool) {
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" {
				continue
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok || !ctxObjs[pass.Info.Uses[base]] {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := defOrUse(pass, id); obj != nil {
					ctxObjs[obj] = true
				}
			}
		}
		return true
	})
}

// loopObservesCtx reports whether the loop's condition or body (outside
// nested function literals) mentions any of the tracked objects — the
// context itself, a derived context, or a Done channel.
func loopObservesCtx(pass *Pass, loop *ast.ForStmt, ctxObjs map[types.Object]bool) bool {
	found := false
	check := func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && ctxObjs[obj] {
				found = true
			}
		}
		return !found
	}
	if loop.Cond != nil {
		inspectShallow(loop.Cond, check)
	}
	if !found {
		inspectShallow(loop.Body, check)
	}
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// defOrUse returns the object id defines or, failing that, refers to.
func defOrUse(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}
