package render

import (
	"time"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/rt"
)

// Unstructured-grid renderers — the §VII extension: "If necessary, the
// visualization proxy is extended to include any new algorithm that the
// user may wish to study." These register the tetrahedral-mesh contour
// filters under "uns-iso" and "uns-slice".

func init() {
	factories["uns-iso"] = func() Renderer { return &unsIso{} }
	factories["uns-slice"] = func() Renderer { return &unsSlice{} }
}

func wantUnstructured(ds data.Dataset, name string) (*data.UnstructuredGrid, error) {
	u, ok := ds.(*data.UnstructuredGrid)
	if !ok {
		return nil, kindError(name, "an unstructured grid", ds)
	}
	return u, nil
}

// unsIso is the geometry-pipeline isosurface over tetrahedral meshes.
// Its draw buffers are its own (see geom.Scratch).
type unsIso struct{ scratch geom.Scratch }

func (*unsIso) Name() string    { return "uns-iso" }
func (*unsIso) Kind() data.Kind { return data.KindUnstructuredGrid }

func (r *unsIso) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	u, err := wantUnstructured(ds, "uns-iso")
	if err != nil {
		return Stats{}, err
	}
	t0 := time.Now()
	mesh, err := geom.IsosurfaceUnstructured(u, gridField(opt), opt.IsoValue)
	if err != nil {
		return Stats{}, err
	}
	t1 := time.Now()
	lo, hi := isoScalarRange(opt, u.Field)
	r.scratch.DrawMesh(frame, mesh, cam, geom.ShadeOptions{
		Colormap: fb.Hot,
		ScalarLo: lo, ScalarHi: hi,
	})
	return Stats{
		Algorithm:  "uns-iso",
		Elements:   u.Cells(),
		Primitives: mesh.TriangleCount(),
		Setup:      t1.Sub(t0),
		Render:     time.Since(t1),
	}, nil
}

// unsSlice is the geometry-pipeline slicing plane over tetrahedral
// meshes. Its draw buffers are its own (see geom.Scratch).
type unsSlice struct{ scratch geom.Scratch }

func (*unsSlice) Name() string    { return "uns-slice" }
func (*unsSlice) Kind() data.Kind { return data.KindUnstructuredGrid }

func (r *unsSlice) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	u, err := wantUnstructured(ds, "uns-slice")
	if err != nil {
		return Stats{}, err
	}
	point, normal := opt.SlicePoint, opt.SliceNormal
	if normal == (vec3zero) {
		normal = defaultNormal
		point = u.Bounds().Center()
	}
	t0 := time.Now()
	mesh, err := geom.SlicePlaneUnstructured(u, gridField(opt), point, normal)
	if err != nil {
		return Stats{}, err
	}
	t1 := time.Now()
	r.scratch.DrawMesh(frame, mesh, cam, geom.ShadeOptions{
		Colormap: fb.Hot,
		ScalarLo: opt.ScalarLo, ScalarHi: opt.ScalarHi,
		Ambient: 0.95,
	})
	return Stats{
		Algorithm:  "uns-slice",
		Elements:   u.Cells(),
		Primitives: mesh.TriangleCount(),
		Setup:      t1.Sub(t0),
		Render:     time.Since(t1),
	}, nil
}

// rayDVR is the direct-volume-rendering extension algorithm for
// structured grids, registered alongside the paper's slice/isosurface
// back-ends.
type rayDVR struct{}

func init() {
	factories["ray-dvr"] = func() Renderer { return &rayDVR{} }
}

func (*rayDVR) Name() string    { return "ray-dvr" }
func (*rayDVR) Kind() data.Kind { return data.KindStructuredGrid }

func (*rayDVR) Render(frame *fb.Frame, ds data.Dataset, cam *camera.Camera, opt Options) (Stats, error) {
	g, err := wantGrid(ds, "ray-dvr")
	if err != nil {
		return Stats{}, err
	}
	t0 := time.Now()
	err = rt.RaycastVolume(frame, g, cam, rt.DVROptions{
		Field:    gridField(opt),
		ScalarLo: opt.ScalarLo, ScalarHi: opt.ScalarHi,
	})
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Algorithm:  "ray-dvr",
		Elements:   g.Cells(),
		Primitives: frame.W * frame.H,
		Render:     time.Since(t0),
	}, nil
}
