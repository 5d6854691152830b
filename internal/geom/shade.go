package geom

import (
	"math"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/vec"
)

// ctrTriangles counts triangles handed to the rasterizer (TACC-Stats
// analog), and ctrShaded the smooth-mesh vertices DrawMesh computed a
// normal and colour for.
var (
	ctrTriangles = telemetry.Default.Counter("geom.triangles")
	ctrShaded    = telemetry.Default.Counter("geom.shaded")
)

// ShadeOptions configures mesh rendering.
type ShadeOptions struct {
	// Colormap maps normalized vertex scalars to color; nil = Viridis.
	Colormap *fb.Colormap
	// ScalarRange normalizes vertex scalars; when Lo == Hi the mesh's own
	// range is used.
	ScalarLo, ScalarHi float32
	// Light is the direction toward the light in world space; zero
	// selects a headlight (from the camera).
	Light vec.V3
	// Ambient is the ambient light fraction in [0, 1]; default 0.25.
	Ambient float64
}

// DrawMesh projects, shades, and rasterizes m into frame using cam:
// Lambert + ambient, Gouraud-interpolated from the vertex normals of a
// smooth (isosurface) mesh, else flat with the geometric normal per
// triangle — what a fixed-function OpenGL pipeline would do with
// per-face normals. Projection, colormap lookup and vertex shading are
// done once per mesh vertex, however many triangles share it. A smooth
// mesh's normals are read from its grid now, which must not have changed
// since the mesh was extracted. This is the rendering half of the
// geometry pipeline; its cost is proportional to the geometry generated,
// not the input data size.
func DrawMesh(frame *fb.Frame, m *Mesh, cam *camera.Camera, opt ShadeOptions) {
	new(Scratch).DrawMesh(frame, m, cam, opt)
}

// DrawMesh is the package's DrawMesh on s's screen vertices, keep flags,
// shaded flags, triangle list and bins, resized as the mesh needs.
//
// A smooth mesh's vertex is shaded — its normal computed from the grid
// (VertexNormal) and its colour lit — by one function, on one of two
// schedules. With one worker, the rasterizer asks for a triangle's
// colours just before it blends the triangle's first pixel
// (raster.DrawTrianglesLazy), so a vertex only hidden or off-screen
// triangles use is never shaded. With more, the bands draw concurrently
// and would race to shade a shared vertex, so every vertex is shaded up
// front, in parallel, with its projection. A pixel reads only colours of
// shaded vertices, and shading is the same arithmetic on either schedule,
// so the frame is the same bits.
func (s *Scratch) DrawMesh(frame *fb.Frame, m *Mesh, cam *camera.Camera, opt ShadeOptions) {
	if m.TriangleCount() == 0 {
		return
	}
	sh := newShading(m, cam, opt)
	smooth := m.grid != nil
	lazy := smooth && par.DefaultWorkers() == 1
	proj := cam.NewProjector(frame.W, frame.H)
	// One screen vertex per mesh vertex, then — shaded flat — three of its
	// own for each kept triangle, after them.
	nv := len(m.Verts)
	if !smooth {
		nv += 3 * m.TriangleCount()
	}
	s.verts = resize(s.verts, nv)
	s.keep = resize(s.keep, len(m.Verts))
	s.shaded = resize(s.shaded, len(m.Verts))
	verts, keep, shaded := s.verts, s.keep, s.shaded
	par.ForGrained(len(m.Verts), 0, 0, func(from, to int) {
		for i := from; i < to; i++ {
			x, y, depth, ok := proj.Project(m.Verts[i])
			keep[i] = ok
			verts[i] = raster.Vertex{X: x, Y: y, Depth: depth}
			switch {
			case !smooth:
				verts[i].Color = sh.color(m.Scalars[i])
			case lazy:
				shaded[i] = false
			default:
				verts[i].Color = sh.vertex(m, i)
			}
		}
	})
	s.tris = resize(s.tris, m.TriangleCount())
	tris := s.tris
	n := 0
	face := int32(len(m.Verts))
	for ti, t := range m.Tris {
		if !keep[t[0]] || !keep[t[1]] || !keep[t[2]] {
			continue // clip whole triangle at near plane
		}
		if !smooth {
			shade := sh.lit(m.Normal(ti))
			for c := range t {
				v := &verts[face+int32(c)]
				*v = verts[t[c]]
				v.Color = v.Color.Scale(shade)
				t[c] = face + int32(c)
			}
			face += 3
		}
		tris[n] = t
		n++
	}
	ctrTriangles.Add(int64(n))
	if !lazy {
		if smooth {
			ctrShaded.Add(int64(len(m.Verts)))
		}
		s.bins.DrawTriangles(frame, verts, tris[:n], 0)
		return
	}
	count := 0
	raster.DrawTrianglesLazy(frame, verts, tris[:n], func(t [3]int32) {
		for _, v := range t {
			if !shaded[v] {
				shaded[v] = true
				verts[v].Color = sh.vertex(m, int(v))
				count++
			}
		}
	})
	ctrShaded.Add(int64(count))
}

// shading is DrawMesh's lighting and colour mapping for one draw.
type shading struct {
	cmap    *fb.Colormap
	lo      float32 // scalar mapped to the colormap's first entry
	scale   float64 // per scalar unit, to the colormap's [0, 1]
	light   vec.V3  // unit direction toward the light
	ambient float64
}

// newShading resolves opt's defaults for drawing m with cam: Viridis, the
// mesh's own scalar range when opt's is empty, a headlight, and an
// ambient fraction of 0.25.
func newShading(m *Mesh, cam *camera.Camera, opt ShadeOptions) shading {
	sh := shading{cmap: opt.Colormap, lo: opt.ScalarLo, light: opt.Light, ambient: opt.Ambient}
	if sh.cmap == nil {
		sh.cmap = fb.Viridis
	}
	hi := opt.ScalarHi
	if sh.lo >= hi {
		sh.lo, hi = data.Range(m.Scalars)
	}
	if hi > sh.lo {
		sh.scale = 1 / float64(hi-sh.lo)
	}
	if sh.light == (vec.V3{}) {
		sh.light = cam.Eye.Sub(cam.Center)
	}
	sh.light = sh.light.Norm()
	if sh.ambient <= 0 {
		sh.ambient = 0.25
	}
	return sh
}

// lit is Lambert + ambient for unit normal n, two-sided: extraction
// makes no winding guarantee.
func (s shading) lit(n vec.V3) float64 {
	return s.ambient + (1-s.ambient)*math.Abs(n.Dot(s.light))
}

// color maps scalar v to its colormap colour.
func (s shading) color(v float32) vec.V3 {
	return s.cmap.Lookup(float64(v-s.lo) * s.scale)
}

// vertex is smooth mesh m's Gouraud colour at vertex i: per-vertex
// normals interpolate via vertex colours, removing the faceting of flat
// shading. It is the one shading function both of drawMesh's schedules
// call.
func (s shading) vertex(m *Mesh, i int) vec.V3 {
	return s.color(m.Scalars[i]).Scale(s.lit(m.VertexNormal(i)))
}
