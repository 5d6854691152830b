// Package camera provides the pinhole camera model shared by both of
// ETH's rendering pipelines. The geometry pipeline uses the combined
// view-projection matrix to transform primitives into screen space; the
// raycasting pipeline uses the inverse mapping to generate per-pixel
// primary rays. Keeping both derivations in one type guarantees the two
// pipelines render the same view, which the RMSE comparisons require.
package camera

import (
	"math"

	"github.com/ascr-ecx/eth/internal/vec"
)

// Camera is a pinhole camera with a vertical field of view.
type Camera struct {
	Eye    vec.V3  // camera position, world space
	Center vec.V3  // look-at target
	Up     vec.V3  // approximate up direction
	FovY   float64 // vertical field of view, radians
	Near   float64 // near clip distance (> 0)
	Far    float64 // far clip distance (> Near)
}

// LookAt returns a camera with sensible defaults (40 degree fov,
// near/far derived later from the scene by FitClip).
func LookAt(eye, center, up vec.V3) Camera {
	return Camera{
		Eye: eye, Center: center, Up: up,
		FovY: 40 * math.Pi / 180,
		Near: 0.1, Far: 1000,
	}
}

// ForBounds positions a camera to frame the bounding box b from a
// three-quarter view, the framing used by every experiment so results
// are comparable across runs.
func ForBounds(b vec.AABB) Camera {
	c := b.Center()
	d := b.Diagonal()
	if d == 0 {
		d = 1
	}
	eye := c.Add(vec.New(0.9, 0.55, 1.1).Norm().Scale(d * 1.2))
	cam := LookAt(eye, c, vec.New(0, 1, 0))
	cam.FitClip(b)
	return cam
}

// FitClip adjusts Near and Far to tightly contain bounds b.
func (c *Camera) FitClip(b vec.AABB) {
	d := c.Eye.Sub(b.Center()).Len()
	r := b.Diagonal() / 2
	c.Near = math.Max((d-r)*0.5, d*1e-4)
	c.Far = (d + r) * 2
}

// View returns the world-to-camera matrix.
func (c *Camera) View() vec.M4 {
	return vec.LookAt(c.Eye, c.Center, c.Up)
}

// Proj returns the camera-to-clip matrix for a w x h viewport.
func (c *Camera) Proj(w, h int) vec.M4 {
	aspect := float64(w) / float64(h)
	return vec.Perspective(c.FovY, aspect, c.Near, c.Far)
}

// ViewProj returns the combined world-to-clip matrix.
func (c *Camera) ViewProj(w, h int) vec.M4 {
	return c.Proj(w, h).MulM(c.View())
}

// Project maps world point p to window coordinates for a w x h viewport:
// x in [0, w), y in [0, h) with y=0 the top row, and depth the camera
// space distance along the view direction (positive in front). ok is
// false when the point is behind the near plane. Callers projecting many
// points through one camera build a Projector once instead.
func (c *Camera) Project(p vec.V3, w, h int) (x, y, depth float64, ok bool) {
	pr := c.NewProjector(w, h)
	return pr.Project(p)
}

// Projector holds a camera's view and projection matrices for a fixed
// viewport, so projecting a point is two matrix-vector products instead
// of a LookAt and a Perspective construction on top of them — the
// geometry-side twin of RayGen.
type Projector struct {
	view, proj vec.M4
	near       float64
	w, h       float64
}

// NewProjector builds the projector for c rendering a w x h viewport.
func (c *Camera) NewProjector(w, h int) Projector {
	return Projector{
		view: c.View(), proj: c.Proj(w, h),
		near: c.Near,
		w:    float64(w), h: float64(h),
	}
}

// Project maps world point p to window coordinates; see Camera.Project,
// which is this method on a projector built for one point. It is the view
// matrix's MulPoint and the projection's MulPointW, row by row through
// vec.M4.Row on the matrices in place — the same products in the same
// order, with no call and no matrix copied per point.
func (pr *Projector) Project(p vec.V3) (x, y, depth float64, ok bool) {
	view, proj := &pr.view, &pr.proj
	cam := vec.V3{X: view.Row(0, p), Y: view.Row(1, p), Z: view.Row(2, p)}
	if w := view.Row(3, p); w != 0 && w != 1 {
		inv := 1 / w
		cam = vec.V3{X: cam.X * inv, Y: cam.Y * inv, Z: cam.Z * inv}
	}
	if cam.Z > -pr.near {
		return 0, 0, 0, false
	}
	wc := proj.Row(3, cam)
	if wc == 0 {
		return 0, 0, 0, false
	}
	inv := 1 / wc
	nx := proj.Row(0, cam) * inv
	ny := proj.Row(1, cam) * inv
	x = (nx + 1) / 2 * pr.w
	y = (1 - (ny+1)/2) * pr.h
	return x, y, -cam.Z, true
}

// Ray describes a primary ray.
type Ray struct {
	Origin vec.V3
	Dir    vec.V3 // normalized
}

// RayThrough returns the ray through pixel center (px + 0.5, py + 0.5) of
// a w x h viewport. Pixel (0,0) is the top-left corner, matching Project.
func (c *Camera) RayThrough(px, py, w, h int) Ray {
	return c.RayThroughF(float64(px)+0.5, float64(py)+0.5, w, h)
}

// RayThroughF returns the ray through window position (x, y) in pixels.
func (c *Camera) RayThroughF(x, y float64, w, h int) Ray {
	// Camera basis.
	fwd := c.Center.Sub(c.Eye).Norm()
	right := fwd.Cross(c.Up.Norm()).Norm()
	up := right.Cross(fwd)

	aspect := float64(w) / float64(h)
	halfH := math.Tan(c.FovY / 2)
	halfW := halfH * aspect

	// NDC in [-1, 1], y up.
	nx := 2*x/float64(w) - 1
	ny := 1 - 2*y/float64(h)

	dir := fwd.
		Add(right.Scale(nx * halfW)).
		Add(up.Scale(ny * halfH)).
		Norm()
	return Ray{Origin: c.Eye, Dir: dir}
}

// RayGen precomputes the camera basis for a fixed viewport so per-pixel
// ray generation is a few fused multiply-adds instead of a basis
// construction with trigonometry — the difference is material when every
// pixel of every frame casts a primary ray.
type RayGen struct {
	origin       vec.V3
	fwd, right   vec.V3
	up           vec.V3
	halfW, halfH float64
	invW, invH   float64
}

// NewRayGen builds a generator for cam rendering a w x h viewport.
func (c *Camera) NewRayGen(w, h int) RayGen {
	fwd := c.Center.Sub(c.Eye).Norm()
	right := fwd.Cross(c.Up.Norm()).Norm()
	up := right.Cross(fwd)
	aspect := float64(w) / float64(h)
	halfH := math.Tan(c.FovY / 2)
	return RayGen{
		origin: c.Eye,
		fwd:    fwd, right: right, up: up,
		halfW: halfH * aspect, halfH: halfH,
		invW: 1 / float64(w), invH: 1 / float64(h),
	}
}

// Ray returns the primary ray through pixel center (px+0.5, py+0.5),
// identical to Camera.RayThrough for the same viewport.
func (g *RayGen) Ray(px, py int) Ray {
	nx := 2*(float64(px)+0.5)*g.invW - 1
	ny := 1 - 2*(float64(py)+0.5)*g.invH
	dir := g.fwd.
		Add(g.right.Scale(nx * g.halfW)).
		Add(g.up.Scale(ny * g.halfH)).
		Norm()
	return Ray{Origin: g.origin, Dir: dir}
}
