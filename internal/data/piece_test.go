package data

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/vec"
)

// referencePartition is the parent's Partition, kept as the reference the
// run-wise subgrid and the piece-only extraction are held to: every slab
// copied vertex by vertex through Index into fresh arrays.
func referencePartition(g *StructuredGrid, n int) []Dataset {
	if n <= 1 {
		return []Dataset{g}
	}
	axis := g.Bounds().LongestAxis()
	cells := [3]int{g.NX, g.NY, g.NZ}[axis] - 1
	if cells < 1 {
		return []Dataset{g}
	}
	if n > cells {
		n = cells
	}
	var pieces []Dataset
	for p := 0; p < n; p++ {
		lo, hi := p*cells/n, (p+1)*cells/n
		dims := [3]int{g.NX, g.NY, g.NZ}
		dims[axis] = hi - lo + 1
		out := NewStructuredGrid(dims[0], dims[1], dims[2])
		out.Spacing = g.Spacing
		out.Origin = g.Origin.Add(vec.V3{
			X: g.Spacing.X * float64(lo*boolToInt(axis == 0)),
			Y: g.Spacing.Y * float64(lo*boolToInt(axis == 1)),
			Z: g.Spacing.Z * float64(lo*boolToInt(axis == 2)),
		})
		for _, f := range g.Fields {
			vals := make([]float32, 0, out.Count())
			for k := 0; k < out.NZ; k++ {
				for j := 0; j < out.NY; j++ {
					for i := 0; i < out.NX; i++ {
						s := [3]int{i, j, k}
						s[axis] += lo
						vals = append(vals, f.Values[g.Index(s[0], s[1], s[2])])
					}
				}
			}
			out.Fields = append(out.Fields, Field{Name: f.Name, Values: vals})
		}
		pieces = append(pieces, out)
	}
	return pieces
}

// sameGrid holds got to want exactly: dimensions, placement, field names
// and every value.
func sameGrid(t *testing.T, what string, got, want Dataset) {
	t.Helper()
	a, ok := got.(*StructuredGrid)
	b := want.(*StructuredGrid)
	if !ok {
		t.Fatalf("%s: got %T, want a structured grid", what, got)
	}
	if a.NX != b.NX || a.NY != b.NY || a.NZ != b.NZ || a.Origin != b.Origin || a.Spacing != b.Spacing {
		t.Fatalf("%s: %dx%dx%d at %v step %v, want %dx%dx%d at %v step %v", what,
			a.NX, a.NY, a.NZ, a.Origin, a.Spacing, b.NX, b.NY, b.NZ, b.Origin, b.Spacing)
	}
	if len(a.Fields) != len(b.Fields) {
		t.Fatalf("%s: %d fields, want %d", what, len(a.Fields), len(b.Fields))
	}
	for i := range b.Fields {
		if a.Fields[i].Name != b.Fields[i].Name || len(a.Fields[i].Values) != len(b.Fields[i].Values) {
			t.Fatalf("%s: field %d is %q with %d values, want %q with %d", what, i,
				a.Fields[i].Name, len(a.Fields[i].Values), b.Fields[i].Name, len(b.Fields[i].Values))
		}
		for j, v := range b.Fields[i].Values {
			if a.Fields[i].Values[j] != v {
				t.Fatalf("%s: field %q value %d = %v, want %v", what, b.Fields[i].Name, j, a.Fields[i].Values[j], v)
			}
		}
	}
}

// splitGrid is a two-field grid, off the origin with unequal spacing,
// whose longest world axis is the given one; step varies the values.
func splitGrid(axis, step int) *StructuredGrid {
	dims := [3]int{5, 6, 4}
	dims[axis] = 11
	g := NewStructuredGrid(dims[0], dims[1], dims[2])
	g.Origin = vec.New(-1.5, 2, 0.25)
	g.Spacing = vec.New(0.5, 0.75, 1.25)
	g.Spacing = g.Spacing.Scale(0.4) // keep the 11-vertex axis the longest
	for _, name := range []string{"temperature", "density"} {
		vals := make([]float32, g.Count())
		for i := range vals {
			vals[i] = float32((i*7+len(name)*13+step*101)%997) / 3
		}
		g.Fields = append(g.Fields, Field{Name: name, Values: vals})
	}
	return g
}

// TestPieceMatchesPartition is the differential net under the slab copy:
// the run-wise Partition equals the per-vertex reference, and a Piecer —
// fresh, warm, and recycled across a shape change — returns exactly
// Partition(n)[k], for every split axis, 1 to 5 ranks and every piece.
func TestPieceMatchesPartition(t *testing.T) {
	for axis := 0; axis < 3; axis++ {
		g := splitGrid(axis, 0)
		if got := g.Bounds().LongestAxis(); got != axis {
			t.Fatalf("test grid splits along axis %d, want %d", got, axis)
		}
		for n := 1; n <= 5; n++ {
			want := referencePartition(g, n)
			pieces := g.Partition(n)
			if len(pieces) != len(want) {
				t.Fatalf("axis %d n %d: %d pieces, want %d", axis, n, len(pieces), len(want))
			}
			for k := range want {
				sameGrid(t, "Partition", pieces[k], want[k])

				var fresh, warm Piecer
				sameGrid(t, "fresh Piece", fresh.Piece(g, n, k), want[k])
				// Warm: the same Piecer on the next step's values writes
				// into the arrays it returned last.
				first := warm.Piece(g, n, k).(*StructuredGrid)
				next := splitGrid(axis, 1)
				again := warm.Piece(next, n, k).(*StructuredGrid)
				sameGrid(t, "recycled Piece", again, referencePartition(next, n)[k])
				if n > 1 && &again.Fields[0].Values[0] != &first.Fields[0].Values[0] {
					t.Errorf("axis %d n %d k %d: the second extraction did not recycle the first's arrays", axis, n, k)
				}
				// A different shape (another piece count, another axis)
				// must not be squeezed into the old arrays.
				other := splitGrid((axis+1)%3, 2)
				sameGrid(t, "Piece after a shape change", warm.Piece(other, n+1, k), referencePartition(other, n+1)[k])
			}
			var pc Piecer
			if got := pc.Piece(g, n, len(want)); got != nil {
				t.Errorf("axis %d n %d: piece %d of %d exists", axis, n, len(want), len(want))
			}
		}
	}
}

// TestPieceNeverWritesIntoTheSource pins the ownership rule: when nothing
// is split the piece IS the source's grid, and a Piecer must not take
// that grid for one of its own and overwrite it on the next step.
func TestPieceNeverWritesIntoTheSource(t *testing.T) {
	var pc Piecer
	whole := linearGrid(2, 2, 2)
	if got := pc.Piece(whole, 1, 0); got != Dataset(whole) {
		t.Fatal("piece 0 of 1 should be the grid itself")
	}
	keep := append([]float32(nil), whole.Fields[0].Values...)
	// Piece 0 of this 3x2x2 grid split two ways is 2x2x2 too, the shape a
	// careless recycle would have written into whole.
	pc.Piece(linearGrid(3, 2, 2), 2, 0)
	for i, v := range keep {
		if whole.Fields[0].Values[i] != v {
			t.Fatalf("source value %d overwritten: %v, was %v", i, whole.Fields[0].Values[i], v)
		}
	}
	pts := NewPointCloud(10)
	for k := 0; k < 3; k++ {
		if got, want := pc.Piece(pts, 3, k), pts.Partition(3)[k]; got.Count() != want.Count() {
			t.Errorf("point cloud piece %d has %d particles, want %d", k, got.Count(), want.Count())
		}
	}
	if pc.Piece(pts, 3, 3) != nil {
		t.Error("point cloud piece 3 of 3 exists")
	}
}

// TestPieceWarmAllocs is the gate behind "a rank copies out only its own
// slab": once a Piecer holds a slab of the right shape, the next step's
// extraction allocates nothing, on any split axis.
func TestPieceWarmAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	for axis := 0; axis < 3; axis++ {
		steps := []Dataset{splitGrid(axis, 0), splitGrid(axis, 1)}
		var pc Piecer
		i := 0
		extract := func() {
			if pc.Piece(steps[i%2], 2, 1) == nil {
				t.Fatal("no piece 1 of 2")
			}
			i++
		}
		extract()
		if allocs := testing.AllocsPerRun(20, extract); allocs != 0 {
			t.Errorf("axis %d: a warm piece extraction allocates %.1f times, want 0", axis, allocs)
		}
	}
}

// tiedCloud is an n-particle cloud whose longest axis is x and whose x
// takes only seven values, so every split cuts through runs of equal
// split coordinates; step varies the values.
func tiedCloud(n, step int) *PointCloud {
	p := NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(1000*step + i)
		p.X[i] = float32((i*5+step)%7) * 10
		p.Y[i] = float32((i*3+step)%11) / 4
		p.Z[i] = float32((i*13+step)%17) / 8
		p.VX[i], p.VY[i], p.VZ[i] = float32(i), float32(-i), float32(step)
	}
	p.SpeedField()
	return p
}

// sameCloud holds got to want exactly: IDs, positions, velocities, field
// names and values.
func sameCloud(t *testing.T, what string, got Dataset, want Dataset) {
	t.Helper()
	a, ok := got.(*PointCloud)
	b := want.(*PointCloud)
	if !ok {
		t.Fatalf("%s: got %T, want a point cloud", what, got)
	}
	if a.Count() != b.Count() || len(a.IDs) != len(b.IDs) || len(a.Fields) != len(b.Fields) {
		t.Fatalf("%s: %d particles and %d fields, want %d and %d", what, a.Count(), len(a.Fields), b.Count(), len(b.Fields))
	}
	for i := range b.IDs {
		if a.IDs[i] != b.IDs[i] || a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] ||
			a.VX[i] != b.VX[i] || a.VY[i] != b.VY[i] || a.VZ[i] != b.VZ[i] {
			t.Fatalf("%s: particle %d is ID %d at (%v, %v, %v), want ID %d at (%v, %v, %v)", what, i,
				a.IDs[i], a.X[i], a.Y[i], a.Z[i], b.IDs[i], b.X[i], b.Y[i], b.Z[i])
		}
	}
	for f := range b.Fields {
		if a.Fields[f].Name != b.Fields[f].Name {
			t.Fatalf("%s: field %d is %q, want %q", what, f, a.Fields[f].Name, b.Fields[f].Name)
		}
		for i, v := range b.Fields[f].Values {
			if a.Fields[f].Values[i] != v {
				t.Fatalf("%s: field %q value %d = %v, want %v", what, b.Fields[f].Name, i, a.Fields[f].Values[i], v)
			}
		}
	}
}

// TestPieceCloudMatchesPartition holds a Piecer's point-cloud piece to
// Partition's: for 1 to 5 ranks and every piece, across steps whose
// sizes shrink and grow, through one Piecer, the piece is
// Partition(n)[k], ties on the split coordinate broken the same way.
func TestPieceCloudMatchesPartition(t *testing.T) {
	var pc Piecer
	for step, size := range []int{997, 400, 1200} {
		p := tiedCloud(size, step)
		for n := 1; n <= 5; n++ {
			want := p.Partition(n)
			for k := 0; k < n; k++ {
				sameCloud(t, fmt.Sprintf("step %d, piece %d of %d", step, k, n), pc.Piece(p, n, k), want[k])
			}
			if pc.Piece(p, n, n) != nil {
				t.Errorf("step %d: piece %d of %d exists", step, n, n)
			}
		}
	}
}

// TestPieceCloudWarmAllocs is the gate behind "a cloud rank keeps only
// its own piece": once warm, a Piecer sorts into its own index scratch
// and selects into its own cloud, so a piece allocates no more than the
// sort.Slice it makes — not the other ranks' pieces, not the indices.
func TestPieceCloudWarmAllocs(t *testing.T) {
	p := tiedCloud(5_000, 0)
	var pc Piecer
	piece := func() {
		if pc.Piece(p, 3, 1) == nil {
			t.Fatal("no piece 1 of 3")
		}
	}
	piece()
	coord := p.X
	idx := make([]int, p.Count())
	sortOnly := func() {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return coord[idx[a]] < coord[idx[b]] })
	}
	bytes := func(f func()) uint64 {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if got, sorting := bytes(piece), bytes(sortOnly); got > sorting {
		t.Errorf("a warm piece allocates %d bytes, the sort.Slice it makes %d: want nothing beyond the sort", got, sorting)
	}
}
