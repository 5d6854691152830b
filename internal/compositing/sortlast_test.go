package compositing_test

import (
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/compositing"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/vec"
)

// TestSortLastMatchesWholeRender is the sort-last invariant: split a
// dataset with Partition, render every piece with the one camera framed
// on the whole dataset and the colour range pinned to the whole field's,
// depth-composite the pieces, and the result matches the whole render.
// Raycast spheres of a fixed radius nearly agree exactly; slab pieces of
// a grid share their boundary planes, so the isosurface differs only in
// the shading of duplicated boundary triangles.
func TestSortLastMatchesWholeRender(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cloud := data.NewPointCloud(3000)
	for i := 0; i < cloud.Count(); i++ {
		cloud.IDs[i] = int64(i)
		cloud.SetPos(i, vec.New(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10))
		cloud.SetVel(i, vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
	}
	cloud.SpeedField()
	speed, err := cloud.Field("speed")
	if err != nil {
		t.Fatal(err)
	}

	grid := data.NewStructuredGrid(24, 24, 24)
	c := vec.Splat(23.0 / 2)
	grid.FillField("temperature", func(p vec.V3) float32 {
		return float32(1 / (1 + p.Sub(c).Len()))
	})
	temp, err := grid.Field("temperature")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		alg     string
		ds      data.Dataset
		field   *data.Field
		opt     render.Options
		maxRMSE float64
	}{
		{"raycast", cloud, speed, render.Options{Radius: 0.25}, 0.02},
		{"vtk-iso", grid, temp, render.Options{IsoValue: 0.12}, 0.03},
	}
	const w, h = 96, 96
	for _, tc := range cases {
		t.Run(tc.alg, func(t *testing.T) {
			cam := camera.ForBounds(tc.ds.Bounds())
			opt := tc.opt
			opt.ScalarLo, opt.ScalarHi = tc.field.MinMax()
			whole := renderOne(t, tc.alg, tc.ds, &cam, opt, w, h)
			for _, n := range []int{2, 4, 7} {
				pieces := tc.ds.Partition(n)
				rendered := make([]*fb.Frame, len(pieces))
				for i, piece := range pieces {
					rendered[i] = renderOne(t, tc.alg, piece, &cam, opt, w, h)
				}
				for _, calg := range []compositing.Algorithm{compositing.DirectSend, compositing.BinarySwap} {
					// Fresh copies per algorithm: Composite merges into them.
					frames := make([]*fb.Frame, len(rendered))
					for i, r := range rendered {
						frames[i] = fb.New(w, h)
						if err := frames[i].CopyFrom(r); err != nil {
							t.Fatal(err)
						}
					}
					out, stats, err := compositing.Composite(frames, calg)
					if err != nil {
						t.Fatal(err)
					}
					rmse, err := fb.RMSE(whole, out)
					if err != nil {
						t.Fatal(err)
					}
					if rmse > tc.maxRMSE {
						t.Errorf("%d pieces, %v: RMSE vs whole render = %.4f, want <= %v", n, calg, rmse, tc.maxRMSE)
					}
					if stats.BytesMoved == 0 {
						t.Errorf("%d pieces, %v: no compositing accounted", n, calg)
					}
				}
			}
		})
	}
}

func renderOne(t *testing.T, alg string, ds data.Dataset, cam *camera.Camera, opt render.Options, w, h int) *fb.Frame {
	t.Helper()
	r, err := render.New(alg)
	if err != nil {
		t.Fatal(err)
	}
	frame := fb.New(w, h)
	if _, err := r.Render(frame, ds, cam, opt); err != nil {
		t.Fatal(err)
	}
	return frame
}
