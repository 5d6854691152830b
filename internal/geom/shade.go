package geom

import (
	"math"
	"sync"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/par"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/vec"
)

// ctrTriangles counts triangles handed to the rasterizer (TACC-Stats
// analog).
var ctrTriangles = telemetry.Default.Counter("geom.triangles")

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

// drawPool holds DrawMesh's buffers between calls (see Scratch).
var drawPool sync.Pool

// DrawMesh projects, shades, and rasterizes m into frame using cam:
// Lambert + ambient, Gouraud-interpolated from the mesh's vertex normals
// when it has them, else flat with the geometric normal per triangle —
// what a fixed-function OpenGL pipeline would do with per-face normals.
// Projection, colormap lookup and vertex shading are done once per mesh
// vertex, however many triangles share it. This is the rendering half of
// the geometry pipeline; its cost is proportional to the geometry
// generated, not the input data size.
func DrawMesh(frame *fb.Frame, m *Mesh, cam *camera.Camera, opt ShadeOptions) {
	s, _ := drawPool.Get().(*Scratch)
	if s == nil {
		s = new(Scratch)
	}
	s.DrawMesh(frame, m, cam, opt)
	drawPool.Put(s)
}

// drawMesh is DrawMesh on the screen vertices, keep flags and triangle
// list it is given, resized as the mesh needs; it returns them for the
// next draw.
func drawMesh(frame *fb.Frame, m *Mesh, cam *camera.Camera, opt ShadeOptions, verts []raster.Vertex, keep []bool, tris [][3]int32) ([]raster.Vertex, []bool, [][3]int32) {
	if m.TriangleCount() == 0 {
		return verts, keep, tris
	}
	cmap := opt.Colormap
	if cmap == nil {
		cmap = fb.Viridis
	}
	lo, hi := opt.ScalarLo, opt.ScalarHi
	if lo >= hi {
		lo, hi = scalarRange(m.Scalars)
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
	// Two-sided lighting: extraction makes no winding guarantee.
	lit := func(n vec.V3) float64 { return ambient + (1-ambient)*math.Abs(n.Dot(light)) }

	smooth := len(m.Normals) == len(m.Verts)
	proj := cam.NewProjector(frame.W, frame.H)
	// One screen vertex per mesh vertex, then — shaded flat — three of its
	// own for each kept triangle, after them.
	nv := len(m.Verts)
	if !smooth {
		nv += 3 * m.TriangleCount()
	}
	verts = resize(verts, nv)
	keep = resize(keep, len(m.Verts))
	par.ForGrained(len(m.Verts), 0, 0, func(from, to int) {
		for i := from; i < to; i++ {
			x, y, depth, ok := proj.Project(m.Verts[i])
			keep[i] = ok
			color := cmap.Lookup(float64(m.Scalars[i]-lo) * scale)
			if smooth {
				// Gouraud: per-vertex normals interpolate via vertex
				// colors, removing the faceting of flat shading.
				color = color.Scale(lit(m.Normals[i]))
			}
			verts[i] = raster.Vertex{X: x, Y: y, Depth: depth, Color: color}
		}
	})
	tris = resize(tris, m.TriangleCount())
	n := 0
	face := int32(len(m.Verts))
	for ti, t := range m.Tris {
		if !keep[t[0]] || !keep[t[1]] || !keep[t[2]] {
			continue // clip whole triangle at near plane
		}
		if !smooth {
			shade := lit(m.Normal(ti))
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
	raster.DrawTriangles(frame, verts, tris[:n], 0)
	return verts, keep, tris
}

func scalarRange(vals []float32) (lo, hi float32) {
	if len(vals) == 0 {
		return 0, 0
	}
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
