package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEq bans == and != on floating-point operands in the numeric hot
// packages (geom, raster, compositing, rt), where accumulated rounding
// makes exact comparison a latent correctness bug: a contour vertex that
// "equals" an isovalue on one rank and not another desynchronizes the
// composited image. Use an epsilon comparison, or carry
// //lint:ignore floateq <reason> for genuine exact sentinels (an
// uninitialized-slot marker, a divide-by-zero guard on untouched input).
//
// The NaN self-test idiom `x != x` is recognized and allowed.
var FloatEq = &Analyzer{
	Name: "floateq",
	Doc:  "no ==/!= on floats in geom, raster, compositing, rt",
	Run:  runFloatEq,
}

// floatEqPkgs are the package base names the check applies to.
var floatEqPkgs = map[string]bool{
	"geom": true, "raster": true, "compositing": true, "rt": true,
}

func runFloatEq(pass *Pass) {
	if !floatEqPkgs[baseName(pass.PkgPath)] {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass, be.X) && !isFloat(pass, be.Y) {
				return true
			}
			if be.Op == token.NEQ && sameIdent(be.X, be.Y) {
				return true // x != x is the NaN check
			}
			pass.Reportf(be.Pos(), "floating-point %s comparison; use an epsilon (rounding makes exact equality rank-dependent)", be.Op)
			return true
		})
	}
}

func baseName(pkgPath string) string {
	for i := len(pkgPath) - 1; i >= 0; i-- {
		if pkgPath[i] == '/' {
			return pkgPath[i+1:]
		}
	}
	return pkgPath
}

// isFloat reports whether the expression's core type is float32/float64.
func isFloat(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sameIdent reports whether both operands are the same plain identifier.
func sameIdent(a, b ast.Expr) bool {
	ia, ok := ast.Unparen(a).(*ast.Ident)
	if !ok {
		return false
	}
	ib, ok := ast.Unparen(b).(*ast.Ident)
	return ok && ia.Name == ib.Name
}
