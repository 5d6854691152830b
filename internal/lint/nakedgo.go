package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NakedGo enforces goroutine hygiene in internal packages: a `go func`
// must either contain a deferred recover (so a panic in a worker cannot
// tear down the whole harness mid-sweep) or visibly forward its errors to
// the launching side — by sending on a channel whose payload carries an
// error, or by assigning into an error variable or slice element captured
// from the caller. A goroutine that does neither turns any failure into a
// silent wrong measurement or a process crash, which is exactly what an
// in-situ faithfulness harness cannot afford.
//
// The check is shape-based: it looks for evidence of a forwarding path,
// not proof that every error reaches it. Goroutines that are genuinely
// infallible can carry //lint:ignore nakedgo <reason>.
var NakedGo = &Analyzer{
	Name: "nakedgo",
	Doc:  "goroutines in internal/ must recover panics or forward errors",
	Run:  runNakedGo,
}

func runNakedGo(pass *Pass) {
	if !isInternalPkg(pass.PkgPath) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				pass.Reportf(g.Pos(), "go statement launches a named function; wrap it in a literal that recovers or forwards its error")
				return true
			}
			if !recoversOrForwards(pass, lit.Body) {
				pass.Reportf(g.Pos(), "goroutine neither recovers panics nor forwards errors to its launcher")
			}
			return true
		})
	}
}

func isInternalPkg(path string) bool {
	return strings.Contains(path, "/internal/")
}

// recoversOrForwards scans a goroutine body for (a) a deferred call whose
// function contains recover(), (b) a channel send whose payload is or
// contains an error, or (c) an assignment whose target has type error.
func recoversOrForwards(pass *Pass, body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch st := n.(type) {
		case *ast.DeferStmt:
			if callsRecover(pass, st.Call) {
				ok = true
				return false
			}
		case *ast.SendStmt:
			if tv, has := pass.Info.Types[st.Value]; has && carriesError(tv.Type) {
				ok = true
				return false
			}
		case *ast.AssignStmt:
			if st.Tok != token.ASSIGN {
				return true
			}
			for _, lhs := range st.Lhs {
				if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name == "_" {
					continue
				}
				if tv, has := pass.Info.Types[lhs]; has && implementsError(tv.Type) {
					ok = true
					return false
				}
			}
		}
		return true
	})
	return ok
}

// callsRecover reports whether the deferred call is a function literal,
// same-package function, or same-package method whose body calls
// recover(). A bare `defer recover()` deliberately does not count: the
// spec makes it a no-op (recover must be called by the deferred function,
// not be it), so accepting it would bless the exact bug this check exists
// to catch.
func callsRecover(pass *Pass, call *ast.CallExpr) bool {
	var body *ast.BlockStmt
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		body = fn.Body
	case *ast.Ident:
		// Deferred named helper: find its declaration in this package.
		if obj, ok := pass.Info.Uses[fn].(*types.Func); ok {
			body = funcBody(pass, obj)
		}
	case *ast.SelectorExpr:
		// Deferred method call (defer pb.capture()): resolve the method
		// and look for recover in its body, if declared in this package.
		if obj, ok := pass.Info.Uses[fn.Sel].(*types.Func); ok {
			body = funcBody(pass, obj)
		}
	}
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && isRecoverIdent(pass, c.Fun) {
			found = true
			return false
		}
		return !found
	})
	return found
}

func isRecoverIdent(pass *Pass, fun ast.Expr) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != "recover" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// funcBody finds the body of a package-level function declared in this
// package, or nil.
func funcBody(pass *Pass, fn *types.Func) *ast.BlockStmt {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pass.Info.Defs[fd.Name] == fn {
				return fd.Body
			}
		}
	}
	return nil
}

// carriesError reports whether t is an error or a struct with at least
// one field that is an error (the simOut{bytes, err} pattern).
func carriesError(t types.Type) bool {
	if implementsError(t) {
		return true
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if implementsError(st.Field(i).Type()) {
			return true
		}
	}
	return false
}
