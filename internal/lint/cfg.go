package lint

// Control-flow graphs for the flow-sensitive analyzer (ctxguard). The
// builder turns one function body into basic blocks connected by edges
// that model Go's structured control flow — if/for/range/switch/select,
// labeled break and continue, goto, fallthrough — plus two distinguished
// exits: Exit for normal returns (and falling off the end of the body)
// and Panic for explicit panic statements, so a loop whose body always
// panics or returns has no back edge.
//
// The graph is intraprocedural and syntactic: statements are stored whole
// (a block's Nodes are the statements and control expressions it
// executes, in order), and nested function literals are never traversed —
// each literal gets its own CFG. Analyzers walking block nodes should use
// inspectShallow so a closure's body does not bleed into the enclosing
// function's flow.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal run of straight-line statements.
type Block struct {
	// Index is the block's creation order, unique within its CFG.
	Index int
	// Label names the block's role: "entry", "exit", "panic",
	// "for.head", "case", ...
	Label string
	// Nodes are the statements and control expressions executed in this
	// block, in source order. Control expressions (an if condition, a
	// switch tag, a range operand) appear as bare ast.Expr nodes.
	Nodes []ast.Node
	// Succs and Preds are the flow edges.
	Succs []*Block
	Preds []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Name is a display name for diagnostics ("Run", "func literal").
	Name string
	// Entry is the unique entry block (empty; its successor is the first
	// body block).
	Entry *Block
	// Exit collects every normal exit: return statements and falling off
	// the end of the body.
	Exit *Block
	// Panic collects explicit panic(...) exits.
	Panic *Block
	// Blocks lists every block in creation order (Entry first).
	Blocks []*Block

	loopHead map[ast.Stmt]*Block // ForStmt/RangeStmt -> head block
}

// NewCFG builds the graph for fn, which must be an *ast.FuncDecl with a
// body or an *ast.FuncLit. Returns nil for body-less declarations.
func NewCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	name := "func literal"
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		if fn.Body == nil {
			return nil
		}
		body = fn.Body
		name = fn.Name.Name
	case *ast.FuncLit:
		body = fn.Body
	default:
		return nil
	}
	b := &cfgBuilder{
		cfg:    &CFG{Name: name, loopHead: make(map[ast.Stmt]*Block)},
		labels: make(map[string]*Block),
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cfg.Panic = b.newBlock("panic")
	first := b.newBlock("body")
	b.edge(b.cfg.Entry, first)
	b.start(first)
	b.stmtList(body.List)
	if !b.terminated {
		b.edge(b.cur, b.cfg.Exit)
	}
	return b.cfg
}

// HasBackEdge reports whether the loop statement (ForStmt or RangeStmt)
// can actually iterate: some block reachable from the loop's head flows
// back into it. A `for { ...; return x }` whose body leaves the function
// on every path has no back edge and is not really a loop.
func (c *CFG) HasBackEdge(loop ast.Stmt) bool {
	head, ok := c.loopHead[loop]
	if !ok {
		return false
	}
	// Reachability from head, then check whether any of head's preds is in
	// that set.
	seen := make(map[*Block]bool)
	stack := []*Block{head}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	for _, p := range head.Preds {
		if seen[p] {
			return true
		}
	}
	return false
}

type cfgBuilder struct {
	cfg        *CFG
	cur        *Block
	terminated bool

	// breaks/continues are target stacks; an empty label matches the
	// innermost enclosing construct, a named label only its loop/switch.
	breaks    []branchTarget
	continues []branchTarget
	// labels maps label names to their blocks, created on demand so
	// forward gotos resolve.
	labels map[string]*Block
	// pendingLabel is the label wrapping the next loop/switch/select
	// statement, consumed when its targets are pushed.
	pendingLabel string
	// fellThrough is the block ending in a fallthrough statement, wired
	// to the next case clause by the switch builder.
	fellThrough *Block
}

type branchTarget struct {
	label string
	block *Block
}

func (b *cfgBuilder) newBlock(label string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Label: label}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// start makes blk the current block and marks it live.
func (b *cfgBuilder) start(blk *Block) {
	b.cur = blk
	b.terminated = false
}

// flowTo wires fallthrough flow from the current block to blk (unless the
// current block already terminated) and continues there.
func (b *cfgBuilder) flowTo(blk *Block) {
	if !b.terminated {
		b.edge(b.cur, blk)
	}
	b.start(blk)
}

// add appends a node to the current block, opening a fresh (unreachable)
// block for statements that follow a terminator.
func (b *cfgBuilder) add(n ast.Node) {
	if b.terminated {
		b.start(b.newBlock("dead"))
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findBreak resolves a break target; label "" means innermost.
func findTarget(stack []branchTarget, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

// takeLabel consumes the pending label for a loop/switch statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.flowTo(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.terminated = true

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		b.switchStmt(s)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.ExprStmt:
		if isPanicCall(s.X) {
			b.add(s)
			b.edge(b.cur, b.cfg.Panic)
			b.terminated = true
			return
		}
		b.add(s)

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt, ...
		b.add(s)
	}
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if lb, ok := b.labels[name]; ok {
		return lb
	}
	lb := b.newBlock("label." + name)
	b.labels[name] = lb
	return lb
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := findTarget(b.breaks, label); t != nil {
			b.edge(b.cur, t)
		}
		b.terminated = true
	case token.CONTINUE:
		if t := findTarget(b.continues, label); t != nil {
			b.edge(b.cur, t)
		}
		b.terminated = true
	case token.GOTO:
		if s.Label != nil {
			b.edge(b.cur, b.labelBlock(s.Label.Name))
		}
		b.terminated = true
	case token.FALLTHROUGH:
		// Wired to the next case clause by switchStmt.
		b.fellThrough = b.cur
		b.terminated = true
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	condLive := !b.terminated

	then := b.newBlock("if.then")
	after := b.newBlock("if.after")
	if condLive {
		b.edge(cond, then)
	}
	b.start(then)
	b.stmtList(s.Body.List)
	b.flowToUnlessDead(after)

	if s.Else != nil {
		els := b.newBlock("if.else")
		if condLive {
			b.edge(cond, els)
		}
		b.start(els)
		b.stmt(s.Else)
		b.flowToUnlessDead(after)
	} else if condLive {
		b.edge(cond, after)
	}
	b.start(after)
}

// flowToUnlessDead wires the current block to blk if still live, without
// switching to blk (used to join branches).
func (b *cfgBuilder) flowToUnlessDead(blk *Block) {
	if !b.terminated {
		b.edge(b.cur, blk)
	}
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.flowTo(head)
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}
	b.cfg.loopHead[s] = head

	contTarget := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for.post")
		contTarget = post
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, contTarget})
	b.start(body)
	b.stmtList(s.Body.List)
	if post != nil {
		b.flowToUnlessDead(post)
		b.start(post)
		b.stmt(s.Post)
		b.flowToUnlessDead(head)
		b.terminated = true
	} else {
		b.flowToUnlessDead(head)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.start(after)
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	b.flowTo(head)
	b.add(s.X)
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	b.edge(head, body)
	b.edge(head, after)
	b.cfg.loopHead[s] = head

	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, head})
	b.start(body)
	b.stmtList(s.Body.List)
	b.flowToUnlessDead(head)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.start(after)
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	entry := b.cur
	entryLive := !b.terminated
	after := b.newBlock("switch.after")
	b.breaks = append(b.breaks, branchTarget{label, after})

	hasDefault := false
	for _, cc := range s.Body.List {
		clause := cc.(*ast.CaseClause)
		cb := b.newBlock("case")
		if entryLive {
			b.edge(entry, cb)
		}
		if b.fellThrough != nil {
			b.edge(b.fellThrough, cb)
			b.fellThrough = nil
		}
		if clause.List == nil {
			hasDefault = true
		}
		b.start(cb)
		for _, e := range clause.List {
			b.add(e)
		}
		b.stmtList(clause.Body)
		b.flowToUnlessDead(after)
	}
	b.fellThrough = nil
	if !hasDefault && entryLive {
		b.edge(entry, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.start(after)
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.add(s.Assign)
	entry := b.cur
	entryLive := !b.terminated
	after := b.newBlock("typeswitch.after")
	b.breaks = append(b.breaks, branchTarget{label, after})

	hasDefault := false
	for _, cc := range s.Body.List {
		clause := cc.(*ast.CaseClause)
		cb := b.newBlock("case")
		if entryLive {
			b.edge(entry, cb)
		}
		if clause.List == nil {
			hasDefault = true
		}
		b.start(cb)
		b.stmtList(clause.Body)
		b.flowToUnlessDead(after)
	}
	if !hasDefault && entryLive {
		b.edge(entry, after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.start(after)
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	entry := b.cur
	entryLive := !b.terminated
	after := b.newBlock("select.after")
	b.breaks = append(b.breaks, branchTarget{label, after})

	// A select with no cases blocks forever: no edges out at all.
	for _, cc := range s.Body.List {
		clause := cc.(*ast.CommClause)
		cb := b.newBlock("comm")
		if entryLive {
			b.edge(entry, cb)
		}
		b.start(cb)
		if clause.Comm != nil {
			b.stmt(clause.Comm)
		}
		b.stmtList(clause.Body)
		b.flowToUnlessDead(after)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.start(after)
	if entryLive && len(s.Body.List) == 0 {
		b.terminated = true // select{} never proceeds
	}
}

// isPanicCall matches an explicit panic(...) call. The check is
// syntactic; shadowing the builtin hides the edge, which is acceptable
// for a lint-grade CFG.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// inspectShallow walks each of the node's subtrees like ast.Inspect but
// does not descend into nested function literals: a closure's body
// belongs to the closure's own CFG, not the enclosing function's flow.
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
