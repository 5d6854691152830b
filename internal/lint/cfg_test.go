package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// buildTestCFG parses src (a full file), builds the CFG of the function
// named fn, and returns it with the file for node lookups.
func buildTestCFG(t *testing.T, src, fn string) (*CFG, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			c := NewCFG(fd)
			if c == nil {
				t.Fatalf("NewCFG(%s) = nil", fn)
			}
			return c, file
		}
	}
	t.Fatalf("no function %q in source", fn)
	return nil, nil
}

// reachable reports whether to is reachable from from via Succs.
func reachable(from, to *Block) bool {
	seen := make(map[*Block]bool)
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	return false
}

// nthLoop returns the n-th (0-based) ForStmt or RangeStmt in the file, in
// source order.
func nthLoop(file *ast.File, n int) ast.Stmt {
	var loops []ast.Stmt
	ast.Inspect(file, func(nd ast.Node) bool {
		switch nd.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, nd.(ast.Stmt))
		}
		return true
	})
	if n < len(loops) {
		return loops[n]
	}
	return nil
}

func TestCFGShapes(t *testing.T) {
	tests := []struct {
		name string
		src  string
		fn   string
		// expectations
		exitReachable  bool
		panicReachable bool
		defers         int
		backEdges      []bool // per loop, in source order
	}{
		{
			name: "straight line",
			src: `package p
func f(a, b int) int {
	c := a + b
	return c
}`,
			fn:            "f",
			exitReachable: true,
		},
		{
			name: "if else join",
			src: `package p
func f(x int) int {
	if x > 0 {
		x++
	} else {
		x--
	}
	return x
}`,
			fn:            "f",
			exitReachable: true,
		},
		{
			name: "infinite loop never exits",
			src: `package p
func f() {
	n := 0
	for {
		n++
	}
}`,
			fn:            "f",
			exitReachable: false,
			backEdges:     []bool{true},
		},
		{
			name: "infinite loop with break exits",
			src: `package p
func f() int {
	n := 0
	for {
		n++
		if n > 10 {
			break
		}
	}
	return n
}`,
			fn:            "f",
			exitReachable: true,
			backEdges:     []bool{true},
		},
		{
			name: "loop body that always returns has no back edge",
			src: `package p
func f() int {
	for {
		return 1
	}
}`,
			fn:            "f",
			exitReachable: true,
			backEdges:     []bool{false},
		},
		{
			name: "loop body that always panics has no back edge",
			src: `package p
func f() {
	for {
		panic("boom")
	}
}`,
			fn:             "f",
			panicReachable: true,
			backEdges:      []bool{false},
		},
		{
			name: "labeled break leaves the outer loop",
			src: `package p
func f(grid [][]int) int {
	sum := 0
outer:
	for _, row := range grid {
		for _, v := range row {
			if v < 0 {
				break outer
			}
			sum += v
		}
	}
	return sum
}`,
			fn:            "f",
			exitReachable: true,
			backEdges:     []bool{true, true},
		},
		{
			name: "labeled continue targets the outer loop head",
			src: `package p
func f(n int) int {
	total := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == i {
				continue outer
			}
			total++
		}
	}
	return total
}`,
			fn:            "f",
			exitReachable: true,
			backEdges:     []bool{true, true},
		},
		{
			name: "defer with recover is collected and panic exit is modeled",
			src: `package p
func f(bad bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = nil
		}
	}()
	if bad {
		panic("boom")
	}
	return nil
}`,
			fn:             "f",
			exitReachable:  true,
			panicReachable: true,
			defers:         1,
		},
		{
			name: "switch fallthrough chains cases",
			src: `package p
func f(x int) int {
	n := 0
	switch x {
	case 0:
		n++
		fallthrough
	case 1:
		n += 10
	case 2:
		n += 100
	}
	return n
}`,
			fn:            "f",
			exitReachable: true,
		},
		{
			name: "switch without default can skip all cases",
			src: `package p
func f(x int) int {
	switch x {
	case 0:
		return 1
	case 1:
		return 2
	}
	return 0
}`,
			fn:            "f",
			exitReachable: true,
		},
		{
			name: "goto forms a loop",
			src: `package p
func f(n int) int {
	i := 0
again:
	i++
	if i < n {
		goto again
	}
	return i
}`,
			fn:            "f",
			exitReachable: true,
		},
		{
			name: "select with return in one comm clause",
			src: `package p
func f(a, b chan int) int {
	for {
		select {
		case v := <-a:
			return v
		case <-b:
		}
	}
}`,
			fn:            "f",
			exitReachable: true,
			backEdges:     []bool{true},
		},
		{
			name: "empty select blocks forever",
			src: `package p
func f() int {
	select {}
}`,
			fn:            "f",
			exitReachable: false,
		},
		{
			name: "while-shaped loop exits through its condition",
			src: `package p
func f(n int) int {
	for n > 0 {
		n--
	}
	return n
}`,
			fn:            "f",
			exitReachable: true,
			backEdges:     []bool{true},
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, file := buildTestCFG(t, tt.src, tt.fn)
			if got := reachable(c.Entry, c.Exit); got != tt.exitReachable {
				t.Errorf("exit reachable = %v, want %v", got, tt.exitReachable)
			}
			if got := reachable(c.Entry, c.Panic); got != tt.panicReachable {
				t.Errorf("panic reachable = %v, want %v", got, tt.panicReachable)
			}
			defers := 0
			for _, b := range c.Blocks {
				for _, n := range b.Nodes {
					if _, ok := n.(*ast.DeferStmt); ok {
						defers++
					}
				}
			}
			if defers != tt.defers {
				t.Errorf("defer statements in blocks = %d, want %d", defers, tt.defers)
			}
			for i, want := range tt.backEdges {
				loop := nthLoop(file, i)
				if loop == nil {
					t.Fatalf("loop %d not found", i)
				}
				if got := c.HasBackEdge(loop); got != want {
					t.Errorf("loop %d back edge = %v, want %v", i, got, want)
				}
			}
		})
	}
}

// TestCFGFallthroughEdge pins the fallthrough edge precisely: the block
// ending in fallthrough must flow into the next case clause's block.
func TestCFGFallthroughEdge(t *testing.T) {
	src := `package p
func f(x int) int {
	n := 0
	switch x {
	case 0:
		n = 1
		fallthrough
	case 1:
		n += 10
	}
	return n
}`
	c, _ := buildTestCFG(t, src, "f")
	// Find the block containing the fallthrough branch statement.
	var ftBlock *Block
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ftBlock = b
			}
		}
	}
	if ftBlock == nil {
		t.Fatal("no block holds the fallthrough statement")
	}
	// Its successor must be a case block that contains the n += 10
	// assignment, not the switch's after block.
	if len(ftBlock.Succs) != 1 {
		t.Fatalf("fallthrough block has %d successors, want 1", len(ftBlock.Succs))
	}
	succ := ftBlock.Succs[0]
	if succ.Label != "case" {
		t.Errorf("fallthrough flows to %q, want the next case block", succ.Label)
	}
}
