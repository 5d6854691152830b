package lint

import (
	"go/ast"
	"go/types"
)

// PoolLeak machine-checks the mempool ownership convention README states
// in prose: every pooled frame — AcquireFrameUncleared — bound to a local
// variable must reach ReleaseFrame on every normal path out of the
// function. The analysis is flow-sensitive: the function's CFG is solved
// with a forward "live acquisition" dataflow, so an early error return
// that skips the release is reported while a release on every branch (or
// a `defer` release, which also covers panic unwinding) is accepted.
//
// Ownership transfers the analyzer recognizes and exempts:
//
//   - returning the frame (the caller now owns it) — per path, so
//     `return nil, err` without a release still reports;
//   - storing it into a struct, slice, map, channel, or another variable;
//   - capturing it in a closure that does more than use its fields;
//   - passing it to an ordinary call is a borrow, not a transfer —
//     helper functions that fill a frame do not launder ownership.
//
// Explicit panic(...) exits are exempt: a panicking function's frames
// are garbage, not pool debt, and requiring releases there would force
// defer on every hot path the zero-alloc gate protects.
var PoolLeak = &Analyzer{
	Name: "poolleak",
	Doc:  "pooled frames must be released on every normal path out of the function",
	Run:  runPoolLeak,
}

// poolAcq is one tracked acquisition site.
type poolAcq struct {
	obj  types.Object // the variable the acquisition is bound to
	node ast.Node     // the assignment, for reporting
}

func runPoolLeak(pass *Pass) {
	pass.funcNodes(func(fn ast.Node, body *ast.BlockStmt) {
		checkPoolLeak(pass, fn, body)
	})
}

func checkPoolLeak(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	// Pass 1: collect acquisition sites bound to plain local variables in
	// this function's own scope (closures are separate scopes).
	var sites []*poolAcq
	siteOf := make(map[types.Object][]int)
	inspectShallow(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if !isFrameAcquire(pass, call) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			pass.Reportf(as.Pos(), "pooled frame from AcquireFrameUncleared is discarded; bind it and release it")
			return true
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil || len(sites) >= FactLimit {
			return true
		}
		siteOf[obj] = append(siteOf[obj], len(sites))
		sites = append(sites, &poolAcq{obj: obj, node: as})
		return true
	})
	if len(sites) == 0 {
		return
	}

	// Pass 2: classify uses. A site whose frame escapes (stored,
	// captured by a mutating closure, aliased) is the new owner's
	// business; a site released by a defer is safe on every exit,
	// including panics.
	escaped := make(map[types.Object]bool)
	deferred := make(map[types.Object]bool)
	classifyPoolUses(pass, body, siteOf, escaped, deferred)

	cfg := pass.CFGOf(fn)
	if cfg == nil {
		return
	}
	for _, d := range cfg.Defers {
		markDeferredReleases(pass, d, siteOf, deferred)
	}

	tracked := Facts(0)
	for i, s := range sites {
		if !escaped[s.obj] && !deferred[s.obj] {
			tracked = tracked.Add(i)
		}
	}
	if tracked == 0 {
		return
	}

	// Forward flow: a site's bit is live from its acquisition until a
	// release of (or a return mentioning) its variable on that path.
	flow := ForwardFlow(cfg, FlowProblem[Facts]{
		Init: 0,
		Join: Facts.Union,
		Transfer: func(b *Block, in Facts) Facts {
			out := in
			for _, n := range b.Nodes {
				out = poolTransferNode(pass, n, sites, siteOf, tracked, out)
			}
			return out
		},
	}, 0)
	if !flow.Converged {
		return
	}

	leaked := flow.In[cfg.Exit] & tracked
	for i, s := range sites {
		if leaked.Has(i) {
			pass.Reportf(s.node.Pos(),
				"pooled frame from AcquireFrameUncleared is not released on every path out of %s; release it before each return or use defer",
				cfg.Name)
		}
	}
}

// poolTransferNode updates the live-acquisition set for one block node.
func poolTransferNode(pass *Pass, n ast.Node, sites []*poolAcq, siteOf map[types.Object][]int, tracked Facts, out Facts) Facts {
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.AssignStmt:
			// An acquisition assignment sets its site's bit.
			if len(m.Lhs) == 1 && len(m.Rhs) == 1 {
				if call, ok := m.Rhs[0].(*ast.CallExpr); ok {
					if isFrameAcquire(pass, call) {
						if id, ok := m.Lhs[0].(*ast.Ident); ok {
							if obj := defOrUse(pass, id); obj != nil {
								for _, i := range siteOf[obj] {
									if tracked.Has(i) {
										out = out.Add(i)
									}
								}
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			// A release call clears every site bound to the argument.
			if obj := poolReleaseArg(pass, m); obj != nil {
				for _, i := range siteOf[obj] {
					out = out.Del(i)
				}
			}
		case *ast.ReturnStmt:
			// Returning the frame hands ownership to the caller on this
			// path only.
			for _, res := range m.Results {
				inspectShallow(res, func(r ast.Node) bool {
					if id, ok := r.(*ast.Ident); ok {
						if obj := pass.Info.Uses[id]; obj != nil {
							for _, i := range siteOf[obj] {
								out = out.Del(i)
							}
						}
					}
					return true
				})
			}
		}
		return true
	})
	return out
}

// classifyPoolUses walks the function body marking sites whose variable
// escapes. Neutral uses (borrows): call arguments and method receivers
// (callees fill frames, they do not take ownership), field reads,
// comparisons, and reassignment of the variable itself. Escapes: stores
// into another variable or element, composite literals, channel sends,
// and capture by a closure that does more than read the frame's fields.
func classifyPoolUses(pass *Pass, body *ast.BlockStmt, siteOf map[types.Object][]int, escaped, deferred map[types.Object]bool) {
	walkStack(body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil || siteOf[obj] == nil {
			return true
		}
		// Inside a nested closure? Classify the closure use itself: pure
		// field uses (par.For bodies filling the frame) are fine;
		// anything else escapes.
		for i := len(stack) - 1; i >= 0; i-- {
			if _, isLit := stack[i].(*ast.FuncLit); isLit {
				if !neutralPoolUse(pass, id, stack) {
					escaped[obj] = true
				}
				return true
			}
		}
		if !neutralPoolUse(pass, id, stack) {
			escaped[obj] = true
		}
		return true
	})
}

// neutralPoolUse reports whether this occurrence of the tracked variable
// neither releases nor transfers ownership — it is a borrow or a
// same-variable operation the flow transfer handles.
func neutralPoolUse(pass *Pass, id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return true
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// f.Field read or method borrow: f.Clear(c), f.Color[i], ...
		return p.X == id
	case *ast.CallExpr:
		// Argument (or callee) position. Release calls are handled by the
		// flow transfer; any other call borrows the frame.
		return true
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == id {
				return true // reassignment target
			}
		}
		// RHS of an assignment to some other variable: aliasing store.
		return false
	case *ast.ReturnStmt:
		return true // per-path ownership transfer, handled in the flow
	case *ast.IfStmt, *ast.BinaryExpr, *ast.UnaryExpr, *ast.ParenExpr:
		return true // nil checks, comparisons, ...
	case *ast.ExprStmt, *ast.SwitchStmt, *ast.CaseClause, *ast.ForStmt:
		return true
	}
	// Composite literal, send, index on the LHS of a map store, defer
	// argument (defers are scanned separately), go statement, ...
	return false
}

// markDeferredReleases records variables released by a defer statement:
// either `defer ReleaseFrame(f)` directly or a deferred closure whose body
// releases the variable.
func markDeferredReleases(pass *Pass, d *ast.DeferStmt, siteOf map[types.Object][]int, deferred map[types.Object]bool) {
	if obj := poolReleaseArg(pass, d.Call); obj != nil && siteOf[obj] != nil {
		deferred[obj] = true
		return
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if obj := poolReleaseArg(pass, call); obj != nil && siteOf[obj] != nil {
					deferred[obj] = true
				}
			}
			return true
		})
	}
}

// isFrameAcquire reports whether call is a pooled frame acquisition: a
// package-level func AcquireFrameUncleared, matched by name so fixtures
// following the mempool convention are covered.
func isFrameAcquire(pass *Pass, call *ast.CallExpr) bool {
	fnObj := calleeFunc(pass, call)
	return fnObj != nil && fnObj.Name() == "AcquireFrameUncleared" && !isMethod(fnObj)
}

// poolReleaseArg returns the released variable's object when call is a
// pool release (a package-level func ReleaseFrame) with a plain
// identifier argument, else nil.
func poolReleaseArg(pass *Pass, call *ast.CallExpr) types.Object {
	fnObj := calleeFunc(pass, call)
	if fnObj == nil || fnObj.Name() != "ReleaseFrame" || isMethod(fnObj) || len(call.Args) != 1 {
		return nil
	}
	arg := call.Args[0]
	for {
		p, ok := arg.(*ast.ParenExpr)
		if !ok {
			break
		}
		arg = p.X
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.Uses[id]
}

// isMethod reports whether fn has a receiver.
func isMethod(fn *types.Func) bool {
	return fn.Type().(*types.Signature).Recv() != nil
}

// calleeFunc resolves the called function or method object.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if id == nil {
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func defOrUse(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}
