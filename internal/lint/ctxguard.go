package lint

import (
	"go/ast"
	"go/token"
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
// A loop is reported only if it can start a second iteration, which
// loopIterates decides from the loop's own syntax: a `for { ...; return }`
// body that leaves the loop on every path runs at most once and is not
// reported. Counter-stepped loops (`for i := 0; i < n; i++`) step toward
// their condition and are skipped. Range loops are skipped too: a range
// over a slice, map, string or integer ends with it, and one over a
// channel ends when the sender closes the channel, so cancelling it is
// the sender's job.
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

		// ast.Inspect visits a labeled statement just before the statement
		// it labels, so labeled holds a loop's label when it has one.
		var labeled *ast.LabeledStmt
		inspectShallow(body, func(n ast.Node) bool {
			if l, ok := n.(*ast.LabeledStmt); ok {
				labeled = l
			}
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
			label := ""
			if labeled != nil && labeled.Stmt == loop {
				label = labeled.Label.Name
			}
			if !loopIterates(loop.Body, label) {
				return true // leaves on every path; not really a loop
			}
			name := "func literal"
			if fd, ok := fn.(*ast.FuncDecl); ok {
				name = fd.Name.Name
			}
			pass.Reportf(loop.Pos(),
				"unbounded loop in ctx-taking %s never observes ctx: select on ctx.Done(), check ctx.Err(), or pass ctx to a callee",
				name)
			return true
		})
	})
}

// loopIterates reports whether a loop with this body and label ("" for
// none) can start a second iteration: some path through the body reaches
// its end or a continue aimed at the loop. A return, a panic(...) and a
// break that leaves the loop end it. A goto counts as coming back, which
// errs toward reporting. Only the loop's own iterations count: an inner
// loop whose body always leaves it runs at most once per outer
// iteration, and the outer loop is checked on its own.
func loopIterates(body *ast.BlockStmt, label string) bool {
	w := &iterWalk{targets: []branchTarget{{label: label, loop: true}}}
	return w.list(body.List) || w.again
}

// iterWalk follows the statements of one loop body.
type iterWalk struct {
	// targets are the statements a break or continue can aim at,
	// outermost first; targets[0] is the loop under test.
	targets []branchTarget
	// again is set by a continue aimed at the loop under test, or a goto.
	again bool
}

type branchTarget struct {
	label  string
	loop   bool // a for or range statement, which a continue can aim at
	broken bool // a break leaves it
}

// list reports whether control can fall off the end of stmts. The
// statements after one that never completes are unreachable and skipped.
func (w *iterWalk) list(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !w.stmt(s, "") {
			return false
		}
	}
	return true
}

// stmt reports whether control can fall off the end of s, whose label is
// label ("" for none).
func (w *iterWalk) stmt(s ast.Stmt, label string) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.list(s.List)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, s.Label.Name)
	case *ast.ReturnStmt:
		return false
	case *ast.ExprStmt:
		return !isPanicCall(s.X)
	case *ast.BranchStmt:
		w.branch(s)
		return false
	case *ast.IfStmt:
		then := w.list(s.Body.List)
		return s.Else == nil || w.stmt(s.Else, "") || then
	case *ast.ForStmt:
		// A loop without a condition completes only when a break leaves it.
		return w.loop(label, s.Body) || s.Cond != nil
	case *ast.RangeStmt:
		w.loop(label, s.Body)
		return true
	case *ast.SwitchStmt:
		return w.clauses(label, s.Body, true)
	case *ast.TypeSwitchStmt:
		return w.clauses(label, s.Body, true)
	case *ast.SelectStmt:
		return w.clauses(label, s.Body, false)
	}
	return true
}

// branch follows a break, continue, goto or fallthrough. A fallthrough
// runs the next clause, whose own completion its switch already counts.
func (w *iterWalk) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.GOTO:
		w.again = true
		return
	case token.FALLTHROUGH:
		return
	}
	for i := len(w.targets) - 1; i >= 0; i-- {
		t := &w.targets[i]
		if s.Label != nil && s.Label.Name != t.label {
			continue
		}
		if s.Label == nil && s.Tok == token.CONTINUE && !t.loop {
			continue
		}
		if s.Tok == token.BREAK {
			t.broken = true
		} else {
			w.again = w.again || i == 0
		}
		return
	}
	// The label is outside the loop under test, which the branch leaves.
}

// loop walks the body of a loop nested in the one under test and reports
// whether a break leaves it.
func (w *iterWalk) loop(label string, body *ast.BlockStmt) bool {
	w.targets = append(w.targets, branchTarget{label: label, loop: true})
	w.list(body.List)
	return w.pop()
}

// clauses walks the clauses of a switch (open) or select and reports
// whether control can leave it: by completing a clause, by a break, or,
// for a switch without a default clause, by matching no case. A select
// with no clauses never completes.
func (w *iterWalk) clauses(label string, body *ast.BlockStmt, open bool) bool {
	w.targets = append(w.targets, branchTarget{label: label})
	completes := false
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			open = open && c.List != nil
			completes = w.list(c.Body) || completes
		case *ast.CommClause:
			completes = w.list(c.Body) || completes
		}
	}
	return w.pop() || completes || open
}

// pop drops the innermost target and reports whether a break left it.
func (w *iterWalk) pop() bool {
	t := w.targets[len(w.targets)-1]
	w.targets = w.targets[:len(w.targets)-1]
	return t.broken
}

// isPanicCall matches an explicit panic(...) call. The check is
// syntactic: a function that shadows the builtin counts as a panic too.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// inspectShallow walks n like ast.Inspect but does not descend into
// nested function literals: a closure is its own scope (see
// Pass.funcNodes), not part of the enclosing function's flow.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		return fn(m)
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
