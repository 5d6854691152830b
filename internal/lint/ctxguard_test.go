package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const ctxGuardFixture = `package fixture

import "context"

func step(ctx context.Context) error { return ctx.Err() }
func poll() int                      { return 0 }

// An infinite loop that never looks at its context keeps a supervised
// role alive after teardown.
func unguarded(ctx context.Context) {
	n := 0
	for { // want "never observes ctx"
		n += poll()
	}
}

// Selecting on ctx.Done() each iteration is the canonical guard.
func guardedSelect(ctx context.Context, work chan int) {
	for {
		select {
		case <-ctx.Done():
			return
		case w := <-work:
			_ = w
		}
	}
}

// Passing the context to a callee counts: the callee observes it.
func guardedCall(ctx context.Context) {
	for {
		if err := step(ctx); err != nil {
			return
		}
	}
}

// A Done channel bound from the context is an observation too.
func guardedDoneChan(ctx context.Context, work chan int) {
	done := ctx.Done()
	for {
		select {
		case <-done:
			return
		case <-work:
		}
	}
}

// Checking ctx.Err() in the loop condition guards a while-shaped loop.
func guardedCond(ctx context.Context) {
	for ctx.Err() == nil {
		poll()
	}
}

// The body leaves the function on every path, so this "loop" runs at
// most once.
func alwaysReturns(ctx context.Context) int {
	for {
		return poll()
	}
}

// While-shaped spin without any context observation.
func whileUnguarded(ctx context.Context, ready *bool) {
	for !*ready { // want "never observes ctx"
		poll()
	}
}

// Counter-stepped loops are bounded by construction: skipped.
func boundedCounter(ctx context.Context, n int) {
	sum := 0
	for i := 0; i < n; i++ {
		sum += poll()
	}
	_ = sum
}

// The inner loop's body always leaves it, so it runs at most once per
// iteration of the outer loop, which observes ctx.
func nestedOnce(ctx context.Context) {
	for ctx.Err() == nil {
		for {
			poll()
			break
		}
	}
}

// A break inside a select leaves the select, not the loop: once work is
// closed, this spins.
func breakInSelect(ctx context.Context, work chan int) {
	for { // want "never observes ctx"
		select {
		case <-work:
			break
		}
	}
}

// Functions without a context parameter are out of scope.
func noCtx() {
	for {
		if poll() > 0 {
			return
		}
	}
}

// A function literal with its own ctx parameter is its own scope.
var handler = func(ctx context.Context) {
	for { // want "never observes ctx"
		poll()
	}
}
`

func TestCtxGuard(t *testing.T) {
	runFixture(t, CtxGuard, "fixture/ctxguard", ctxGuardFixture)
}

func TestCtxGuardSuppression(t *testing.T) {
	src := `package fixture

import "context"

func spin() {}

// A deliberate busy-wait documented via directive.
func calibrate(ctx context.Context) {
	//lint:ignore ctxguard timing calibration must not be preempted by cancellation
	for {
		spin()
	}
}
`
	res := runFixture(t, CtxGuard, "fixture/ctxguardsup", src)
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", res.Suppressed)
	}
}

// TestLoopIterates pins loopIterates on the shapes it must tell apart.
// Each row lists, for every for and range loop of f in source order,
// whether that loop can start a second iteration.
func TestLoopIterates(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []bool
	}{
		{"straight line", `
func f(a, b int) int {
	for {
		c := a + b
		return c
	}
}`, []bool{false}},
		{"if else join", `
func f(x int) {
	for {
		if x > 0 {
			x++
		} else {
			x--
		}
	}
}`, []bool{true}},
		{"infinite loop never exits", `
func f() {
	n := 0
	for {
		n++
	}
}`, []bool{true}},
		{"infinite loop with break exits", `
func f() int {
	n := 0
	for {
		n++
		if n > 10 {
			break
		}
	}
	return n
}`, []bool{true}},
		{"loop body that always returns has no back edge", `
func f() int {
	for {
		return 1
	}
}`, []bool{false}},
		{"loop body that always panics has no back edge", `
func f() {
	for {
		panic("boom")
	}
}`, []bool{false}},
		{"labeled break leaves the outer loop", `
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
}`, []bool{true, true}},
		{"labeled continue targets the outer loop head", `
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
}`, []bool{true, true}},
		{"defer with recover then panic", `
func f(bad bool) (err error) {
	for {
		defer func() {
			if r := recover(); r != nil {
				err = nil
			}
		}()
		if bad {
			panic("boom")
		}
		return nil
	}
}`, []bool{false}},
		{"switch fallthrough chains cases", `
func f(x int) {
	for {
		switch x {
		case 0:
			x++
			fallthrough
		case 1:
			return
		default:
			panic(x)
		}
	}
}`, []bool{false}},
		{"switch without default can skip all cases", `
func f(x int) {
	for {
		switch x {
		case 0:
			return
		case 1:
			return
		}
	}
}`, []bool{true}},
		{"goto forms a loop", `
func f(n int) int {
	i := 0
	for {
	again:
		i++
		if i < n {
			goto again
		}
		return i
	}
}`, []bool{true}},
		{"select with return in one comm clause", `
func f(a, b chan int) int {
	for {
		select {
		case v := <-a:
			return v
		case <-b:
		}
	}
}`, []bool{true}},
		{"empty select blocks forever", `
func f() {
	for {
		select {}
	}
}`, []bool{false}},
		{"while-shaped loop exits through its condition", `
func f(n int) int {
	for n > 0 {
		n--
	}
	return n
}`, []bool{true}},
		{"break inside select leaves only the select", `
func f(a, b chan int) {
	for {
		select {
		case <-a:
			break
		case <-b:
			return
		}
	}
}`, []bool{true}},
		{"break inside switch leaves only the switch", `
func f(x int) {
	for {
		switch x {
		case 0:
			break
		default:
			return
		}
	}
}`, []bool{true}},
		{"break outer from a nested switch", `
func f(x int) {
outer:
	for {
		switch x {
		case 0:
			break outer
		default:
			return
		}
	}
}`, []bool{false}},
		{"always-breaking nested loop", `
func f() {
	for {
		for {
			_ = 1
			break
		}
	}
}`, []bool{true, false}},
		{"continue outer from an inner loop", `
func f() {
outer:
	for {
		for {
			continue outer
		}
	}
}`, []bool{true, false}},
		{"unreachable continue after return", `
func f() {
	for {
		return
		continue
	}
}`, []bool{false}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			file, err := parser.ParseFile(token.NewFileSet(), "loop.go", "package p\n"+tt.src, 0)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			var got []bool
			labels := make(map[ast.Stmt]string)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.LabeledStmt:
					labels[n.Stmt] = n.Label.Name
				case *ast.ForStmt:
					got = append(got, loopIterates(n.Body, labels[n]))
				case *ast.RangeStmt:
					got = append(got, loopIterates(n.Body, labels[n]))
				}
				return true
			})
			if len(got) != len(tt.want) {
				t.Fatalf("found %d loops, want %d", len(got), len(tt.want))
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("loop %d iterates = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}
