// Package render unifies ETH's two rendering back-ends behind one
// interface (the paper's Figure 6: "options for pipeline execution").
// Experiments name an algorithm — "raycast", "gsplat", "points" for
// particle data; "vtk-iso", "ray-iso", "vtk-slice", "ray-slice" for
// volumes — and the registry returns a Renderer whose Render method
// reports instrumentation (setup vs render time, primitive counts) that
// the harness and the cluster model consume.
package render

import (
	"fmt"
	"sort"
	"time"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/rt"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Options carries the per-render parameters shared by all algorithms;
// each algorithm reads the fields it understands.
type Options struct {
	// ColorField names the scalar for colormapping (particles) or the
	// volume field (grids). Defaults: "speed" for clouds,
	// "temperature" for grids.
	ColorField string
	// IsoValue is the contour value for isosurface algorithms.
	IsoValue float32
	// SlicePoint / SliceNormal define the plane for slice algorithms.
	SlicePoint, SliceNormal vec.V3
	// Radius is the particle world radius for splats and raycast spheres;
	// <= 0 derives one from density.
	Radius float64
	// ScalarLo/Hi pin the colormap normalization range.
	ScalarLo, ScalarHi float32
}

// Stats instruments one Render call.
type Stats struct {
	// Algorithm is the registry name.
	Algorithm string
	// Elements is the number of input elements processed (particles or
	// grid cells).
	Elements int
	// Primitives is the number of intermediate primitives generated
	// (sprites, impostors, triangles, or BVH nodes).
	Primitives int
	// Setup is the time spent building intermediate structures
	// (geometry extraction or BVH build) before pixels were produced.
	Setup time.Duration
	// Render is the time spent producing pixels.
	Render time.Duration
}

// Renderer renders one dataset kind with one algorithm.
type Renderer interface {
	// Name returns the registry name.
	Name() string
	// Kind returns the dataset kind this renderer accepts.
	Kind() data.Kind
	// Render draws ds into frame. Implementations may cache
	// view-independent structures (BVHs) across calls with the same
	// dataset, mirroring production raycasters.
	Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error)
}

// factories registers constructors; each New call returns a fresh,
// stateful renderer (caches are per-instance).
var factories = map[string]func() Renderer{
	"points":    func() Renderer { return &pointsRenderer{} },
	"gsplat":    func() Renderer { return &splatRenderer{} },
	"raycast":   func() Renderer { return &raycastSpheres{} },
	"vtk-iso":   func() Renderer { return &vtkIso{} },
	"ray-iso":   func() Renderer { return &rayIso{} },
	"vtk-slice": func() Renderer { return &vtkSlice{} },
	"ray-slice": func() Renderer { return &raySlice{} },
}

// New returns a fresh renderer for the named algorithm.
func New(name string) (Renderer, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("render: unknown algorithm %q (have %v)", name, Algorithms())
	}
	return f(), nil
}

// Algorithms returns the sorted registry names.
func Algorithms() []string {
	names := make([]string, 0, len(factories))
	for n := range factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// vec3zero and defaultNormal are shared by the slice renderers.
var (
	vec3zero      vec.V3
	defaultNormal = vec.New(0, 0, 1)
)

// kindError reports a dataset-kind mismatch uniformly.
func kindError(name, want string, ds data.Dataset) error {
	return fmt.Errorf("render: %s requires %s, got %v", name, want, ds.Kind())
}

func wantCloud(ds data.Dataset, name string) (*data.PointCloud, error) {
	p, ok := ds.(*data.PointCloud)
	if !ok {
		return nil, kindError(name, "a point cloud", ds)
	}
	return p, nil
}

func wantGrid(ds data.Dataset, name string) (*data.StructuredGrid, error) {
	g, ok := ds.(*data.StructuredGrid)
	if !ok {
		return nil, kindError(name, "a structured grid", ds)
	}
	return g, nil
}

func cloudColorField(opt Options) string {
	if opt.ColorField == "" {
		return "speed"
	}
	return opt.ColorField
}

func gridField(opt Options) string {
	if opt.ColorField == "" {
		return "temperature"
	}
	return opt.ColorField
}

// ---- particle algorithms ----

// pointsRenderer implements the "VTK points" technique (§IV-C). Its
// sprites, colour table and raster bins are its own (see
// geom.ParticleScratch).
type pointsRenderer struct {
	scratch geom.ParticleScratch
	bins    raster.Bins
}

func (*pointsRenderer) Name() string    { return "points" }
func (*pointsRenderer) Kind() data.Kind { return data.KindPointCloud }

func (r *pointsRenderer) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	p, err := wantCloud(ds, "points")
	if err != nil {
		return Stats{}, err
	}
	t0 := time.Now()
	sprites, err := r.scratch.MapPoints(p, cam, frame.W, frame.H, geom.PointsOptions{
		ColorField: cloudColorField(opt),
		ScalarLo:   opt.ScalarLo, ScalarHi: opt.ScalarHi,
	})
	if err != nil {
		return Stats{}, err
	}
	t1 := time.Now()
	r.bins.DrawSprites(frame, sprites, 0)
	return Stats{
		Algorithm:  "points",
		Elements:   p.Count(),
		Primitives: len(sprites),
		Setup:      t1.Sub(t0),
		Render:     time.Since(t1),
	}, nil
}

// screenHeadlight lights sphere impostors from slightly above-left of the
// viewer in screen space (impostor normals live in screen space, +Z
// toward the viewer), giving the roundness cue the paper's Gaussian
// splatter shader produces.
var screenHeadlight = vec.New(-0.3, 0.4, 1).Norm()

// splatRenderer implements the Gaussian splatter (§IV-C). Like
// pointsRenderer, it owns its impostors, colour table and bins.
type splatRenderer struct {
	scratch geom.ParticleScratch
	bins    raster.Bins
}

func (*splatRenderer) Name() string    { return "gsplat" }
func (*splatRenderer) Kind() data.Kind { return data.KindPointCloud }

func (r *splatRenderer) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	p, err := wantCloud(ds, "gsplat")
	if err != nil {
		return Stats{}, err
	}
	t0 := time.Now()
	imps, err := r.scratch.MapSplats(p, cam, frame.W, frame.H, geom.SplatOptions{
		WorldRadius: opt.Radius,
		ColorField:  cloudColorField(opt),
		ScalarLo:    opt.ScalarLo, ScalarHi: opt.ScalarHi,
	})
	if err != nil {
		return Stats{}, err
	}
	t1 := time.Now()
	r.bins.DrawImpostors(frame, imps, screenHeadlight, 0)
	return Stats{
		Algorithm:  "gsplat",
		Elements:   p.Count(),
		Primitives: len(imps),
		Setup:      t1.Sub(t0),
		Render:     time.Since(t1),
	}, nil
}

// raycastSpheres implements "Raycast Spheres" (§IV-C) with a per-dataset
// BVH cache: the paper notes raycasting's extra cost is the one-time
// acceleration-structure build, so repeat renders of the same data reuse
// the tree. The colour table is the renderer's too (see rt.Scratch).
type raycastSpheres struct {
	scratch  rt.Scratch
	cached   *rt.SphereBVH
	cacheKey *data.PointCloud
	cacheGen uint64
	cacheRad float64
}

func (*raycastSpheres) Name() string    { return "raycast" }
func (*raycastSpheres) Kind() data.Kind { return data.KindPointCloud }

func (r *raycastSpheres) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	p, err := wantCloud(ds, "raycast")
	if err != nil {
		return Stats{}, err
	}
	sphereOpt := rt.SphereOptions{
		Radius:     opt.Radius,
		ColorField: cloudColorField(opt),
		ScalarLo:   opt.ScalarLo, ScalarHi: opt.ScalarHi,
	}
	t0 := time.Now()
	radius := opt.Radius
	if radius <= 0 {
		radius = geom.DefaultSplatRadius(p)
		sphereOpt.Radius = radius
	}
	// The generation check catches in-place rewrites: a buffer-reusing
	// receiver delivers every step in the same PointCloud object, so
	// pointer identity alone would serve a stale tree.
	if r.cacheKey != p || r.cacheGen != p.Generation() || r.cacheRad != radius {
		if r.cached == nil {
			r.cached = new(rt.SphereBVH)
		}
		r.cached.Rebuild(p, radius)
		r.cacheKey = p
		r.cacheGen = p.Generation()
		r.cacheRad = radius
	}
	t1 := time.Now()
	if err := r.scratch.RaycastSpheresWithBVH(frame, p, r.cached, cam, sphereOpt); err != nil {
		return Stats{}, err
	}
	return Stats{
		Algorithm:  "raycast",
		Elements:   p.Count(),
		Primitives: r.cached.NodesBuilt,
		Setup:      t1.Sub(t0),
		Render:     time.Since(t1),
	}, nil
}

// ---- volume algorithms ----

// vtkIso is the geometry-pipeline isosurface: contour extraction then
// rasterization, VTK-style. Its mesh and draw buffers are its own (see
// geom.Scratch).
type vtkIso struct{ scratch geom.Scratch }

func (*vtkIso) Name() string    { return "vtk-iso" }
func (*vtkIso) Kind() data.Kind { return data.KindStructuredGrid }

func (r *vtkIso) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	g, err := wantGrid(ds, "vtk-iso")
	if err != nil {
		return Stats{}, err
	}
	t0 := time.Now()
	mesh, err := r.scratch.Isosurface(g, gridField(opt), opt.IsoValue)
	if err != nil {
		return Stats{}, err
	}
	t1 := time.Now()
	lo, hi := isoScalarRange(opt, g.Field)
	r.scratch.DrawMesh(frame, mesh, cam, geom.ShadeOptions{
		Colormap: fb.Hot,
		ScalarLo: lo, ScalarHi: hi,
	})
	return Stats{
		Algorithm:  "vtk-iso",
		Elements:   g.Cells(),
		Primitives: mesh.TriangleCount(),
		Setup:      t1.Sub(t0),
		Render:     time.Since(t1),
	}, nil
}

// isoScalarRange returns the colormap range for an isosurface mesh: the
// pinned one, else the named field's own. The mesh's scalar is the single
// isovalue, so DrawMesh's fallback to the mesh's range would colour every
// vertex with the colormap's first entry — black — where ray-iso, which
// falls back to the field's range, draws a lit surface.
func isoScalarRange(opt Options, field func(name string) (*data.Field, error)) (lo, hi float32) {
	if opt.ScalarLo < opt.ScalarHi {
		return opt.ScalarLo, opt.ScalarHi
	}
	f, err := field(gridField(opt))
	if err != nil {
		return 0, 0
	}
	return f.MinMax()
}

// rayIso is the raycasting isosurface (ray marching).
type rayIso struct{}

func (*rayIso) Name() string    { return "ray-iso" }
func (*rayIso) Kind() data.Kind { return data.KindStructuredGrid }

func (*rayIso) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	g, err := wantGrid(ds, "ray-iso")
	if err != nil {
		return Stats{}, err
	}
	t0 := time.Now()
	err = rt.RaycastIsosurface(frame, g, cam, opt.IsoValue, rt.VolumeOptions{
		Field:    gridField(opt),
		ScalarLo: opt.ScalarLo, ScalarHi: opt.ScalarHi,
	})
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Algorithm:  "ray-iso",
		Elements:   g.Cells(),
		Primitives: frame.W * frame.H, // rays
		Render:     time.Since(t0),
	}, nil
}

// vtkSlice is the geometry-pipeline slicing plane. Like vtkIso, it owns
// its mesh and draw buffers.
type vtkSlice struct{ scratch geom.Scratch }

func (*vtkSlice) Name() string    { return "vtk-slice" }
func (*vtkSlice) Kind() data.Kind { return data.KindStructuredGrid }

func (r *vtkSlice) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	g, err := wantGrid(ds, "vtk-slice")
	if err != nil {
		return Stats{}, err
	}
	point, normal := slicePlane(g, opt)
	t0 := time.Now()
	mesh, err := r.scratch.SlicePlane(g, gridField(opt), point, normal)
	if err != nil {
		return Stats{}, err
	}
	t1 := time.Now()
	r.scratch.DrawMesh(frame, mesh, cam, geom.ShadeOptions{
		Colormap: fb.Hot,
		ScalarLo: opt.ScalarLo, ScalarHi: opt.ScalarHi,
		Ambient: 0.95, // slices are unshaded color maps
	})
	return Stats{
		Algorithm:  "vtk-slice",
		Elements:   g.Cells(),
		Primitives: mesh.TriangleCount(),
		Setup:      t1.Sub(t0),
		Render:     time.Since(t1),
	}, nil
}

// raySlice is the raycasting slicing plane.
type raySlice struct{}

func (*raySlice) Name() string    { return "ray-slice" }
func (*raySlice) Kind() data.Kind { return data.KindStructuredGrid }

func (*raySlice) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	g, err := wantGrid(ds, "ray-slice")
	if err != nil {
		return Stats{}, err
	}
	point, normal := slicePlane(g, opt)
	t0 := time.Now()
	err = rt.RaycastSlice(frame, g, cam, point, normal, rt.VolumeOptions{
		Field:    gridField(opt),
		ScalarLo: opt.ScalarLo, ScalarHi: opt.ScalarHi,
	})
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Algorithm:  "ray-slice",
		Elements:   g.Cells(),
		Primitives: frame.W * frame.H,
		Render:     time.Since(t0),
	}, nil
}

func slicePlane(g *data.StructuredGrid, opt Options) (point, normal vec.V3) {
	point = opt.SlicePoint
	normal = opt.SliceNormal
	if normal == (vec.V3{}) {
		normal = vec.New(0, 0, 1)
		point = g.Bounds().Center()
	}
	return point, normal
}
