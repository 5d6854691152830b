package lint

import (
	"go/ast"
	"testing"
)

func TestFactsOps(t *testing.T) {
	var f Facts
	f = f.Add(0).Add(63)
	if !f.Has(0) || !f.Has(63) || f.Has(5) {
		t.Errorf("Facts membership wrong: %b", f)
	}
	f = f.Del(0)
	if f.Has(0) || !f.Has(63) {
		t.Errorf("Del broke membership: %b", f)
	}
	if got := Facts(0b0110).Union(0b1010); got != 0b1110 {
		t.Errorf("Union = %b, want 1110", got)
	}
}

// TestForwardFlowDiamond runs a gen-kill problem over an if/else diamond:
// a fact generated on only one branch must survive to the join (union)
// but a fact killed on both branches must not.
func TestForwardFlowDiamond(t *testing.T) {
	src := `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}`
	c, _ := buildTestCFG(t, src, "f")

	// Fact 0: "saw the then-branch assignment"; fact 1: "saw any assignment".
	flow := ForwardFlow(c, FlowProblem[Facts]{
		Init: 0,
		Join: Facts.Union,
		Transfer: func(b *Block, in Facts) Facts {
			out := in
			for _, n := range b.Nodes {
				if as, ok := n.(*ast.AssignStmt); ok {
					out = out.Add(1)
					_ = as
					if b.Label == "if.then" {
						out = out.Add(0)
					}
				}
			}
			return out
		},
	}, 0)
	if !flow.Converged {
		t.Fatal("diamond did not converge")
	}
	exitIn := flow.In[c.Exit]
	if !exitIn.Has(0) {
		t.Errorf("then-branch fact did not reach exit under union join: %b", exitIn)
	}
	if !exitIn.Has(1) {
		t.Errorf("always-generated fact missing at exit: %b", exitIn)
	}
}

// TestForwardFlowLoopFixpoint asserts a monotone problem over a loop
// converges and the loop head's fact includes the back-edge contribution.
func TestForwardFlowLoopFixpoint(t *testing.T) {
	src := `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`
	c, file := buildTestCFG(t, src, "f")
	loop := nthLoop(file, 0)
	if !c.HasBackEdge(loop) {
		t.Fatal("counter loop should have a back edge")
	}

	// Generate fact 0 inside the loop body; under union join it must flow
	// around the back edge into the head's in-fact.
	flow := ForwardFlow(c, FlowProblem[Facts]{
		Init: 0,
		Join: Facts.Union,
		Transfer: func(b *Block, in Facts) Facts {
			if b.Label == "for.body" {
				return in.Add(0)
			}
			return in
		},
	}, 0)
	if !flow.Converged {
		t.Fatal("loop did not converge")
	}
	if !flow.In[c.Exit].Has(0) {
		t.Errorf("loop-generated fact did not reach exit")
	}
	for _, b := range c.Blocks {
		if b.Label == "for.head" {
			if !flow.In[b].Has(0) {
				t.Errorf("back-edge fact missing at loop head")
			}
		}
	}
}

// TestForwardFlowIterationCap: a deliberately non-monotone (oscillating)
// transfer must be cut off by the bounded iteration cap with Converged
// reported false — a buggy analyzer degrades to silence, not a hang.
func TestForwardFlowIterationCap(t *testing.T) {
	src := `package p
func f() {
	n := 0
	for {
		n++
	}
}`
	c, _ := buildTestCFG(t, src, "f")
	flip := Facts(0)
	flow := ForwardFlow(c, FlowProblem[Facts]{
		Init: 0,
		Join: Facts.Union,
		Transfer: func(b *Block, in Facts) Facts {
			flip ^= 1 // oscillates: never stabilizes
			return flip
		},
	}, 7)
	if flow.Converged {
		t.Fatal("oscillating transfer reported convergence")
	}
	if flow.Iters != 7 {
		t.Errorf("Iters = %d, want the cap 7", flow.Iters)
	}
}

// TestForwardFlowInfiniteLoopTerminates: the engine itself must terminate
// on a CFG whose exit is unreachable.
func TestForwardFlowInfiniteLoopTerminates(t *testing.T) {
	src := `package p
func f() {
	for {
	}
}`
	c, _ := buildTestCFG(t, src, "f")
	flow := ForwardFlow(c, FlowProblem[Facts]{
		Init:     0,
		Join:     Facts.Union,
		Transfer: func(b *Block, in Facts) Facts { return in.Add(0) },
	}, 0)
	if !flow.Converged {
		t.Fatal("monotone problem on infinite loop did not converge")
	}
	if _, ok := flow.In[c.Exit]; ok {
		t.Errorf("unreachable exit block acquired an in-fact")
	}
}
