package geom

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/vec"
)

// The reference is the contouring and mesh drawing this package had
// before its meshes were indexed, kept as it was: triangle soup, three
// vertices per triangle, every corner interpolated, sampled, projected
// and shaded on its own. The differential tests below hold the indexed
// path to it exactly — same triangles in the same order, same bits in
// every position, scalar, normal, colour and depth.

// refMesh is a reference soup mesh. Normals, when not nil, holds the
// unit normal of every vertex, computed at extraction; nil means flat
// shading.
type refMesh struct {
	Mesh
	Normals []vec.V3
}

func refIsosurface(g *data.StructuredGrid, fieldName string, isoValue float32) *refMesh {
	f, err := g.Field(fieldName)
	if err != nil {
		panic(err)
	}
	value := func(i, j, k int) float32 { return f.Values[g.Index(i, j, k)] }
	scalar := func(p vec.V3) float32 { return isoValue }
	m := refContour(g, value, isoValue, scalar)
	m.Normals = make([]vec.V3, len(m.Verts))
	for i := range m.Verts {
		m.Normals[i] = g.Gradient(f, m.Verts[i]).Norm()
	}
	return m
}

func refSlicePlane(g *data.StructuredGrid, fieldName string, point, normal vec.V3) *refMesh {
	f, err := g.Field(fieldName)
	if err != nil {
		panic(err)
	}
	n := normal.Norm()
	value := func(i, j, k int) float32 {
		return float32(g.VertexPos(i, j, k).Sub(point).Dot(n))
	}
	scalar := func(p vec.V3) float32 { return g.Sample(f, p) }
	return refContour(g, value, 0, scalar)
}

func refContour(g *data.StructuredGrid, value func(i, j, k int) float32, iso float32, scalar func(p vec.V3) float32) *refMesh {
	m := &refMesh{}
	var corners [8]vec.V3
	var vals [8]float32
	for k := 0; k < g.NZ-1; k++ {
		for j := 0; j < g.NY-1; j++ {
			for i := 0; i < g.NX-1; i++ {
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							corner := dx | dy<<1 | dz<<2
							corners[corner] = g.VertexPos(i+dx, j+dy, k+dz)
							vals[corner] = value(i+dx, j+dy, k+dz)
						}
					}
				}
				allLo, allHi := true, true
				for _, v := range vals {
					if v >= iso {
						allLo = false
					}
					if v < iso {
						allHi = false
					}
				}
				if allLo || allHi {
					continue
				}
				for _, tet := range tets {
					refMarchTet(&m.Mesh, &corners, &vals, tet, iso, scalar)
				}
			}
		}
	}
	return m
}

func refMarchTet(m *Mesh, corners *[8]vec.V3, vals *[8]float32, tet [4]int, iso float32, scalar func(p vec.V3) float32) {
	var inside [4]bool
	count := 0
	for i, c := range tet {
		if vals[c] >= iso {
			inside[i] = true
			count++
		}
	}
	if count == 0 || count == 4 {
		return
	}
	edgePoint := func(a, b int) vec.V3 {
		va := vals[tet[a]]
		vb := vals[tet[b]]
		t := 0.5
		if va != vb {
			t = float64((iso - va) / (vb - va))
		}
		return corners[tet[a]].Lerp(corners[tet[b]], t)
	}
	emit := func(p0, p1, p2 vec.V3) {
		base := int32(len(m.Verts))
		m.Verts = append(m.Verts, p0, p1, p2)
		m.Scalars = append(m.Scalars, scalar(p0), scalar(p1), scalar(p2))
		m.Tris = append(m.Tris, [3]int32{base, base + 1, base + 2})
	}
	switch count {
	case 1, 3:
		iso1 := -1
		for i := 0; i < 4; i++ {
			if inside[i] == (count == 1) {
				iso1 = i
				break
			}
		}
		others := make([]int, 0, 3)
		for i := 0; i < 4; i++ {
			if i != iso1 {
				others = append(others, i)
			}
		}
		emit(edgePoint(iso1, others[0]), edgePoint(iso1, others[1]), edgePoint(iso1, others[2]))
	case 2:
		var in2, out2 []int
		for i := 0; i < 4; i++ {
			if inside[i] {
				in2 = append(in2, i)
			} else {
				out2 = append(out2, i)
			}
		}
		p00 := edgePoint(in2[0], out2[0])
		p01 := edgePoint(in2[0], out2[1])
		p10 := edgePoint(in2[1], out2[0])
		p11 := edgePoint(in2[1], out2[1])
		emit(p00, p01, p11)
		emit(p00, p11, p10)
	}
}

// refProject is Camera.Project as it was: both matrices rebuilt for the
// one point.
func refProject(c *camera.Camera, p vec.V3, w, h int) (x, y, depth float64, ok bool) {
	cam := vec.LookAt(c.Eye, c.Center, c.Up).MulPoint(p)
	if cam.Z > -c.Near {
		return 0, 0, 0, false
	}
	clip, wc := vec.Perspective(c.FovY, float64(w)/float64(h), c.Near, c.Far).MulPointW(cam)
	if wc == 0 {
		return 0, 0, 0, false
	}
	inv := 1 / wc
	nx := clip.X * inv
	ny := clip.Y * inv
	x = (nx + 1) / 2 * float64(w)
	y = (1 - (ny+1)/2) * float64(h)
	return x, y, -cam.Z, true
}

func refDrawMesh(frame *fb.Frame, m *refMesh, cam *camera.Camera, opt ShadeOptions) {
	if m.TriangleCount() == 0 {
		return
	}
	cmap := opt.Colormap
	if cmap == nil {
		cmap = fb.Viridis
	}
	lo, hi := opt.ScalarLo, opt.ScalarHi
	if lo >= hi {
		lo, hi = data.Range(m.Scalars)
	}
	scale := 0.0
	if hi > lo {
		scale = 1 / float64(hi-lo)
	}
	light := opt.Light
	if light == (vec.V3{}) {
		light = cam.Eye.Sub(cam.Center)
	}
	light = light.Norm()
	ambient := opt.Ambient
	if ambient <= 0 {
		ambient = 0.25
	}
	// The soup, three vertices of its own per triangle, is what the
	// rasterizer took before it took shared vertices; raster's own
	// reference test holds it to the soup rasterizer it had then.
	var verts []raster.Vertex
	var tris [][3]int32
	smooth := len(m.Normals) == len(m.Verts) && len(m.Verts) > 0
triangles:
	for ti, t := range m.Tris {
		flatShade := 0.0
		if !smooth {
			flatShade = ambient + (1-ambient)*math.Abs(m.Normal(ti).Dot(light))
		}
		var out [3]raster.Vertex
		for c := 0; c < 3; c++ {
			x, y, depth, ok := refProject(cam, m.Verts[t[c]], frame.W, frame.H)
			if !ok {
				continue triangles
			}
			shade := flatShade
			if smooth {
				shade = ambient + (1-ambient)*math.Abs(m.Normals[t[c]].Dot(light))
			}
			s := float64(m.Scalars[t[c]]-lo) * scale
			out[c] = raster.Vertex{X: x, Y: y, Depth: depth, Color: cmap.Lookup(s).Scale(shade)}
		}
		base := int32(len(verts))
		verts = append(verts, out[:]...)
		tris = append(tris, [3]int32{base, base + 1, base + 2})
	}
	new(raster.Bins).DrawTriangles(frame, verts, tris, 0)
}

// diffCase is one grid of the differential tests with the isovalue and
// slice plane it is contoured at.
type diffCase struct {
	name  string
	g     *data.StructuredGrid
	field string
	iso   float32
	// eye, when set, replaces the default camera position (to put part
	// of the surface behind the near plane).
	eye *vec.V3
}

// diffCases is three blast epochs, each as the two pieces a two-rank run
// renders, one small grid with three different side lengths, one of them
// the minimum, one blast piece seen from inside, and wordEdgeGrid at six
// widths around one and two 64-vertex words.
func diffCases(t *testing.T) []diffCase {
	t.Helper()
	var cases []diffCase
	for _, epoch := range []int{0, 5, 11} {
		g, err := blast.Generate(blast.Params{NX: 53, NY: 32, NZ: 27, BoxSize: 10, Seed: 3, TimeStep: epoch})
		if err != nil {
			t.Fatal(err)
		}
		for rank, piece := range g.Partition(2) {
			cases = append(cases, diffCase{
				name: fmt.Sprintf("blast-epoch%d-piece%d", epoch, rank),
				g:    piece.(*data.StructuredGrid), field: "temperature", iso: 0.25,
			})
		}
	}
	odd := data.NewStructuredGrid(7, 2, 5)
	odd.Origin = vec.New(-1, 2, 0.5)
	odd.Spacing = vec.New(0.3, 1.1, 0.7)
	odd.FillField("wave", func(p vec.V3) float32 {
		return float32(math.Sin(3*p.X) + math.Cos(2*p.Z+p.Y))
	})
	cases = append(cases, diffCase{name: "odd-7x2x5", g: odd, field: "wave", iso: 0.2})
	// The same blast piece seen from inside its box: some vertices project
	// behind the near plane, so whole triangles are dropped.
	inside := cases[3]
	inside.name += "-clipped"
	b := inside.g.Bounds()
	eye := b.Min.Add(b.Size().Mul(vec.New(0.4, 0.3, 0.2)))
	inside.eye = &eye
	cases = append(cases, inside)
	for _, nx := range []int{64, 65, 66, 129, 130, 131} {
		cases = append(cases, diffCase{name: fmt.Sprintf("word-edge-%dx4x3", nx), g: wordEdgeGrid(nx), field: "d", iso: wordEdgeIso})
	}
	return cases
}

// wordEdgeIso is the isovalue wordEdgeGrid is contoured at.
const wordEdgeIso = 1.3

// wordEdgeGrid is an nx×4×3 grid whose field "d" at wordEdgeIso is two
// pairs of wavy sheets, one about each 64-vertex word edge (x = 64 and
// x = 128), crossing cells 62–65 and 126–129: the cells whose corners a
// word-at-a-time scan finds in two words. On the vertex columns either
// side of each edge, two vertices are NaN and two exactly wordEdgeIso.
func wordEdgeGrid(nx int) *data.StructuredGrid {
	g := data.NewStructuredGrid(nx, 4, 3)
	// Narrow cells in x keep the whole box in the default camera's view.
	g.Spacing = vec.New(0.1, 1, 1)
	vals := make([]float32, g.Count())
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			w := 0.5 * math.Sin(1.3*float64(j)+0.7*float64(k))
			for i := 0; i < nx; i++ {
				x := float64(i)
				vals[g.Index(i, j, k)] = float32(min(math.Abs(x-64+w), math.Abs(x-128+w)))
			}
		}
	}
	for _, i := range []int{63, 64, 127, 128} {
		if i < nx {
			vals[g.Index(i, 1, 1)] = float32(math.NaN())
			vals[g.Index(i, 2, 2)] = float32(math.NaN())
			vals[g.Index(i, 2, 1)] = wordEdgeIso
			vals[g.Index(i, 1, 0)] = wordEdgeIso
		}
	}
	if err := g.AddField("d", vals); err != nil {
		panic(err)
	}
	return g
}

func (c diffCase) camera() camera.Camera {
	cam := camera.ForBounds(c.g.Bounds())
	if c.eye != nil {
		cam.Eye = *c.eye
		cam.Center = c.g.Bounds().Max
		cam.Near = c.g.Bounds().Diagonal() / 50
	}
	return cam
}

func (c diffCase) slice() (point, normal vec.V3) {
	return c.g.Bounds().Center(), vec.New(0.3, -0.2, 1)
}

// sameBits reports whether a and b hold the same bits in each component,
// or are both NaN there: which NaN an operation on two of them returns
// depends on its operand order, which the compiler may swap.
func sameBits(a, b vec.V3) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(a.X, b.X) && same(a.Y, b.Y) && same(a.Z, b.Z)
}

// requireSameSurface asserts got, an indexed mesh, is ref, a soup mesh,
// triangle for triangle and bit for bit, got's normal accessor included.
func requireSameSurface(t testing.TB, got *Mesh, ref *refMesh) {
	t.Helper()
	if got.TriangleCount() != ref.TriangleCount() {
		t.Fatalf("%d triangles, reference has %d", got.TriangleCount(), ref.TriangleCount())
	}
	if len(got.Scalars) != len(got.Verts) {
		t.Fatalf("%d vertices, %d scalars", len(got.Verts), len(got.Scalars))
	}
	if smooth := got.grid != nil; smooth != (ref.Normals != nil) {
		t.Fatalf("smooth mesh %v, reference smooth %v", smooth, ref.Normals != nil)
	}
	for ti := range ref.Tris {
		for c := 0; c < 3; c++ {
			gi, ri := got.Tris[ti][c], ref.Tris[ti][c]
			if !sameBits(got.Verts[gi], ref.Verts[ri]) {
				t.Fatalf("triangle %d corner %d at %v, reference at %v", ti, c, got.Verts[gi], ref.Verts[ri])
			}
			if math.Float32bits(got.Scalars[gi]) != math.Float32bits(ref.Scalars[ri]) {
				t.Fatalf("triangle %d corner %d scalar %v, reference %v", ti, c, got.Scalars[gi], ref.Scalars[ri])
			}
			if ref.Normals != nil && !sameBits(got.VertexNormal(int(gi)), ref.Normals[ri]) {
				t.Fatalf("triangle %d corner %d normal %v, reference %v", ti, c, got.VertexNormal(int(gi)), ref.Normals[ri])
			}
		}
	}
}

// requireSameFrame asserts two frames hold the same bits.
func requireSameFrame(t *testing.T, what string, got, want *fb.Frame) {
	t.Helper()
	for i := range want.Color {
		if !sameBits(got.Color[i], want.Color[i]) || math.Float64bits(got.Depth[i]) != math.Float64bits(want.Depth[i]) {
			t.Fatalf("%s: pixel %d is %v at depth %v, want %v at %v", what, i, got.Color[i], got.Depth[i], want.Color[i], want.Depth[i])
		}
	}
}

// isoShade and sliceShade are what render's vtk-iso and vtk-slice pass
// DrawMesh, with the colour range pinned as a multi-rank run pins it.
func (c diffCase) isoShade() ShadeOptions {
	f, _ := c.g.Field(c.field)
	lo, hi := f.MinMax()
	return ShadeOptions{Colormap: fb.Hot, ScalarLo: lo, ScalarHi: hi}
}

func (c diffCase) sliceShade() ShadeOptions {
	opt := c.isoShade()
	opt.Ambient = 0.95
	return opt
}

const diffImage = 96

// TestIndexedMatchesReference is the safety net under the indexed
// contourer and the per-vertex DrawMesh: meshes and frames equal the
// reference's exactly, at one worker and at four.
func TestIndexedMatchesReference(t *testing.T) {
	for _, c := range diffCases(t) {
		t.Run(c.name, func(t *testing.T) {
			cam := c.camera()
			point, normal := c.slice()
			refIso := refIsosurface(c.g, c.field, c.iso)
			refSlice := refSlicePlane(c.g, c.field, point, normal)
			if refIso.TriangleCount() == 0 || refSlice.TriangleCount() == 0 {
				t.Fatalf("reference is empty: %d iso, %d slice triangles", refIso.TriangleCount(), refSlice.TriangleCount())
			}
			wantIso, wantSlice := fb.New(diffImage, diffImage), fb.New(diffImage, diffImage)
			refDrawMesh(wantIso, refIso, &cam, c.isoShade())
			refDrawMesh(wantSlice, refSlice, &cam, c.sliceShade())
			if wantIso.CoveredPixels() == 0 || wantSlice.CoveredPixels() == 0 {
				t.Fatalf("reference frame is empty: %d iso, %d slice pixels", wantIso.CoveredPixels(), wantSlice.CoveredPixels())
			}
			if c.eye != nil {
				behind := 0
				for _, v := range refIso.Verts {
					if _, _, _, ok := refProject(&cam, v, diffImage, diffImage); !ok {
						behind++
					}
				}
				if behind == 0 || behind == len(refIso.Verts) {
					t.Fatalf("%d of %d vertices behind the near plane: the drop rule is not exercised", behind, len(refIso.Verts))
				}
			}
			// Flat shading: the reference soup without its normals.
			refFlat := &refMesh{Mesh: refIso.Mesh}
			wantFlat := fb.New(diffImage, diffImage)
			refDrawMesh(wantFlat, refFlat, &cam, c.isoShade())

			for _, workers := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(workers)
				iso, err := Isosurface(c.g, c.field, c.iso)
				if err != nil {
					t.Fatal(err)
				}
				slice, err := new(Scratch).SlicePlane(c.g, c.field, point, normal)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSurface(t, iso, refIso)
				requireSameSurface(t, slice, refSlice)
				if workers == 1 && 2*len(iso.Verts) > len(refIso.Verts) {
					t.Errorf("indexed isosurface has %d vertices for the reference's %d: the edge cache is not sharing", len(iso.Verts), len(refIso.Verts))
				}

				frame := fb.New(diffImage, diffImage)
				DrawMesh(frame, iso, &cam, c.isoShade())
				requireSameFrame(t, fmt.Sprintf("vtk-iso, %d workers", workers), frame, wantIso)
				frame.Clear(vec.V3{})
				DrawMesh(frame, slice, &cam, c.sliceShade())
				requireSameFrame(t, fmt.Sprintf("vtk-slice, %d workers", workers), frame, wantSlice)
				frame.Clear(vec.V3{})
				DrawMesh(frame, &Mesh{Verts: iso.Verts, Scalars: iso.Scalars, Tris: iso.Tris}, &cam, c.isoShade())
				requireSameFrame(t, fmt.Sprintf("flat, %d workers", workers), frame, wantFlat)
				runtime.GOMAXPROCS(prev)
			}
		})
	}
}

// FuzzContourMatchesReference holds the word-at-a-time contourer to the
// reference on grids up to three 64-vertex words wide holding arbitrary
// float32 values, NaN and infinities among them: the same triangles in
// the same order, and the same bits in every position, scalar and
// normal. Values are read from data four bytes at a time and repeat
// when it runs out.
func FuzzContourMatchesReference(f *testing.F) {
	word := func(vals ...float32) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	nan := float32(math.NaN())
	f.Add(uint8(63), uint8(0), uint8(0), float32(0.5), word(0, 1, 0.25, 0.75, 1, 0))
	f.Add(uint8(64), uint8(1), uint8(1), float32(33), word(1))
	f.Add(uint8(64), uint8(1), uint8(1), float32(1), word(0, 0, 0, 1, 2, nan, 1))
	f.Add(uint8(127), uint8(2), uint8(0), float32(0), word(-1, 0, 1, float32(math.Inf(1)), nan, 0, 0.5))
	f.Add(uint8(190), uint8(0), uint8(2), float32(3), word(3, 2, 4, 3, nan, 5))
	f.Fuzz(func(t *testing.T, nx, ny, nz uint8, iso float32, raw []byte) {
		g := data.NewStructuredGrid(2+int(nx)%191, 2+int(ny)%3, 2+int(nz)%3)
		vals := make([]float32, g.Count())
		if n := len(raw) / 4; n > 0 {
			for i := range vals {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(i%n):]))
			}
		}
		if err := g.AddField("v", vals); err != nil {
			t.Fatal(err)
		}
		got, err := new(Scratch).Isosurface(g, "v", iso)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSurface(t, got, refIsosurface(g, "v", iso))
	})
}
