// Package lint is ETH's project-specific static-analysis suite. It loads
// every package in the module with the standard library's go/parser and
// go/types (no golang.org/x/tools dependency, matching the repo's
// zero-dependency go.mod) and runs a set of analyzers that machine-check
// the invariants the harness's measurements depend on: errors wrap with
// %w across proxy/transport boundaries, goroutines either recover or
// forward their errors, hot numeric packages never compare floats with
// ==, internal packages return wrapped sentinels, and unbounded loops
// observe cancellation. ctxguard is flow-sensitive: the function's
// control-flow graph (cfg.go) decides whether a loop can iterate. Stage
// durations need no analyzer: a region with early returns records from a
// deferred telemetry.Histogram.Since, which every return runs.
//
// A finding can be suppressed with a directive on the offending line or
// the line directly above it:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; suppressed findings are counted and reported
// in ethlint's summary line so silence is never free, and the
// self-check test (TestSelfClean) fails on a directive that suppresses
// nothing and on more directives than its budget.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a single type-checked package
// and reports findings through the pass.
type Analyzer struct {
	// Name is the identifier used in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description shown by `ethlint -list`.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	PkgPath  string
	Info     *types.Info

	diags *[]Diagnostic
	cfgs  map[ast.Node]*CFG
}

// CFGOf returns the control-flow graph for fn (an *ast.FuncDecl or
// *ast.FuncLit), building and caching it on first use.
func (p *Pass) CFGOf(fn ast.Node) *CFG {
	if c, ok := p.cfgs[fn]; ok {
		return c
	}
	c := NewCFG(fn)
	if p.cfgs == nil {
		p.cfgs = make(map[ast.Node]*CFG)
	}
	p.cfgs[fn] = c
	return c
}

// funcNodes calls fn for every function with a body in the pass's files:
// declarations and function literals alike. Each literal is its own
// analysis scope (its own CFG); analyzers that use inspectShallow over
// block nodes never see a nested literal's body twice.
func (p *Pass) funcNodes(fn func(node ast.Node, body *ast.BlockStmt)) {
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n, n.Body)
				}
			case *ast.FuncLit:
				fn(n, n.Body)
			}
			return true
		})
	}
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Result is the outcome of running a suite over a set of packages.
type Result struct {
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by //lint:ignore directives.
	Suppressed int
	// Ignores is the number of well-formed //lint:ignore directives in
	// the analyzed packages — the suppression debt TestSelfClean gates.
	Ignores int
	// IgnoreDirectives lists every well-formed directive with how many
	// findings it actually silenced in this run; a directive with zero
	// hits under the full suite is stale.
	IgnoreDirectives []IgnoreDirective
}

// IgnoreDirective is one //lint:ignore occurrence.
type IgnoreDirective struct {
	Pos       token.Position
	Analyzers []string
	Hits      int
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{ErrWrap, NakedGo, FloatEq, SentinelErr, CtxGuard}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the analyzers over the packages, applies ignore
// directives, and returns surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	var raw []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				PkgPath:  pkg.PkgPath,
				Info:     pkg.Info,
				diags:    &raw,
			}
			a.Run(pass)
		}
	}

	// Collect ignore directives across every file of every package.
	ig := newIgnoreIndex()
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ig.collectFile(pkg.Fset, f, &raw)
		}
	}

	res := Result{}
	for _, d := range raw {
		if ig.suppresses(d) {
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	res.Ignores = len(ig.dirs)
	for _, dir := range ig.dirs {
		res.IgnoreDirectives = append(res.IgnoreDirectives, *dir)
	}
	sort.Slice(res.IgnoreDirectives, func(i, j int) bool {
		a, b := res.IgnoreDirectives[i].Pos, res.IgnoreDirectives[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i].Pos, res.Diagnostics[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return res.Diagnostics[i].Analyzer < res.Diagnostics[j].Analyzer
	})
	return res
}

// ignoreRe matches "lint:ignore <analyzer[,analyzer...]> <reason>".
var ignoreRe = regexp.MustCompile(`^lint:ignore\s+(\S+)(?:\s+(.*))?$`)

type ignoreKey struct {
	file string
	line int
}

type ignoreIndex struct {
	// byLine maps file:line to the directives anchored there.
	byLine map[ignoreKey][]*IgnoreDirective
	// dirs lists every well-formed directive, for debt accounting and
	// the stale-suppression audit.
	dirs []*IgnoreDirective
}

func newIgnoreIndex() *ignoreIndex {
	return &ignoreIndex{byLine: make(map[ignoreKey][]*IgnoreDirective)}
}

// collectFile indexes every //lint:ignore directive in f. Malformed
// directives (missing analyzer, missing reason, unknown analyzer name)
// are themselves reported as findings so they cannot rot silently.
func (ig *ignoreIndex) collectFile(fset *token.FileSet, f *ast.File, diags *[]Diagnostic) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			if !strings.HasPrefix(text, "lint:ignore") {
				continue
			}
			pos := fset.Position(c.Pos())
			m := ignoreRe.FindStringSubmatch(strings.TrimSpace(text))
			if m == nil || strings.TrimSpace(m[2]) == "" {
				*diags = append(*diags, Diagnostic{
					Analyzer: "directive",
					Pos:      pos,
					Message:  "malformed directive: want //lint:ignore <analyzer> <reason>",
				})
				continue
			}
			names := strings.Split(m[1], ",")
			dir := &IgnoreDirective{Pos: pos}
			for _, name := range names {
				if ByName(name) == nil {
					*diags = append(*diags, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  fmt.Sprintf("unknown analyzer %q in //lint:ignore", name),
					})
					continue
				}
				dir.Analyzers = append(dir.Analyzers, name)
			}
			if len(dir.Analyzers) == 0 {
				continue
			}
			ig.dirs = append(ig.dirs, dir)
			k := ignoreKey{file: pos.Filename, line: pos.Line}
			ig.byLine[k] = append(ig.byLine[k], dir)
		}
	}
}

// suppresses reports whether d is covered by a directive on its own line
// or the line directly above it.
func (ig *ignoreIndex) suppresses(d Diagnostic) bool {
	if d.Analyzer == "directive" {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, dir := range ig.byLine[ignoreKey{file: d.Pos.Filename, line: line}] {
			for _, name := range dir.Analyzers {
				if name == d.Analyzer {
					dir.Hits++
					return true
				}
			}
		}
	}
	return false
}

// walkStack traverses root depth-first, calling fn with each node and its
// ancestor stack (stack[len-1] is the node's parent). Returning false
// skips the node's children.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	v := &stackVisitor{fn: fn}
	ast.Walk(v, root)
}

type stackVisitor struct {
	stack []ast.Node
	fn    func(ast.Node, []ast.Node) bool
}

func (v *stackVisitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		v.stack = v.stack[:len(v.stack)-1]
		return nil
	}
	if !v.fn(n, v.stack) {
		return nil
	}
	v.stack = append(v.stack, n)
	return v
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t implements error.
func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// enclosingFunc returns the innermost FuncDecl in the stack, or, when the
// node sits in a package-level func literal (var initializer), the
// outermost FuncLit. Returns the function's body and display name.
func enclosingFunc(stack []ast.Node) (body *ast.BlockStmt, name string) {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Body, fd.Name.Name
		}
	}
	for i := 0; i < len(stack); i++ {
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			return fl.Body, "func literal"
		}
	}
	return nil, ""
}
