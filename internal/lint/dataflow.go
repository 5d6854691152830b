package lint

// A small forward dataflow engine over the lint CFG. Analyzers describe a
// join-semilattice of per-block facts (any comparable type; the provided
// Facts bitset covers the common "powerset of up to 64 sites" case) and a
// transfer function; the engine iterates blocks in reverse postorder
// until the facts stop changing or a bounded iteration cap trips. The cap
// makes termination unconditional even for a non-monotone transfer
// function — a buggy analyzer degrades to "no answer" (Converged false)
// instead of hanging the lint gate.

// Facts is a powerset lattice over at most 64 indexed facts (acquisition
// sites, ...). The zero value is the empty set.
type Facts uint64

// FactLimit is the largest number of distinct facts a single function can
// track; analyzers skip functions that overflow it.
const FactLimit = 64

// Has reports whether fact i is in the set.
func (f Facts) Has(i int) bool { return f&(1<<uint(i)) != 0 }

// Add returns the set with fact i included.
func (f Facts) Add(i int) Facts { return f | 1<<uint(i) }

// Del returns the set with fact i removed.
func (f Facts) Del(i int) Facts { return f &^ (1 << uint(i)) }

// Union returns the set union — the join for "exists a path" analyses.
func (f Facts) Union(g Facts) Facts { return f | g }

// FlowProblem describes one forward dataflow analysis over a CFG.
type FlowProblem[F comparable] struct {
	// Init is the fact at function entry.
	Init F
	// Join merges the facts flowing in from two predecessors.
	Join func(a, b F) F
	// Transfer computes a block's out-fact from its in-fact by walking
	// the block's nodes in order.
	Transfer func(b *Block, in F) F
}

// FlowResult carries the fixpoint solution.
type FlowResult[F comparable] struct {
	// In and Out hold each reachable block's entry and exit facts.
	In, Out map[*Block]F
	// Converged is false when the iteration cap tripped first; analyzers
	// should stay silent rather than report from a partial solution.
	Converged bool
	// Iters is the number of full passes performed.
	Iters int
}

// ForwardFlow solves the problem to fixpoint, capped at maxIters full
// passes over the graph (values < 1 select a cap proportional to the
// block count, which is ample for any monotone problem on Facts).
func ForwardFlow[F comparable](c *CFG, p FlowProblem[F], maxIters int) FlowResult[F] {
	order := c.ReversePostorder()
	if maxIters < 1 {
		// A monotone bitset problem converges in O(depth) passes; 4·N+8
		// is a generous safety margin, not a tuning knob.
		maxIters = 4*len(order) + 8
	}
	res := FlowResult[F]{
		In:  make(map[*Block]F, len(order)),
		Out: make(map[*Block]F, len(order)),
	}
	res.In[c.Entry] = p.Init
	res.Out[c.Entry] = p.Transfer(c.Entry, p.Init)

	changed := true
	for changed && res.Iters < maxIters {
		changed = false
		res.Iters++
		for _, b := range order {
			if b == c.Entry {
				continue
			}
			var in F
			first := true
			for _, pred := range b.Preds {
				o, ok := res.Out[pred]
				if !ok {
					continue // pred not yet visited (or unreachable)
				}
				if first {
					in = o
					first = false
				} else {
					in = p.Join(in, o)
				}
			}
			if first {
				continue // no reachable predecessor yet
			}
			out := p.Transfer(b, in)
			if prev, ok := res.Out[b]; !ok || prev != out || res.In[b] != in {
				changed = true
			}
			res.In[b] = in
			res.Out[b] = out
		}
	}
	res.Converged = !changed
	return res
}
