package rt

import (
	"testing"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/vec"
)

// TestScalarColorsErrorReleasesColors holds the sphere renderer's colour
// table to its owner across the error path: a missing colour field fails
// the frame, and the next frame colours into the very table the frame
// before the error used. It once leaked a pooled table on that path; an
// owned table has nothing to leak, and its reuse is deterministic, so the
// test runs under -race as well.
func TestScalarColorsErrorReleasesColors(t *testing.T) {
	p := data.NewPointCloud(16)
	for i := 0; i < 16; i++ {
		p.SetPos(i, vec.New(float64(i), 0, 0))
	}
	p.SpeedField()
	cam := camera.ForBounds(p.Bounds())
	bvh := BuildSphereBVH(p, 0.3, MedianSplit)
	frame := fb.New(8, 8)
	var s Scratch
	render := func(field string) error {
		return s.RaycastSpheresWithBVH(frame, p, bvh, &cam, SphereOptions{ColorField: field})
	}
	if err := render("speed"); err != nil {
		t.Fatal(err)
	}
	table := &s.colors[0]
	if err := render("no-such-field"); err == nil {
		t.Fatal("a missing colour field should fail the frame")
	}
	if err := render("speed"); err != nil {
		t.Fatal(err)
	}
	if &s.colors[0] != table {
		t.Errorf("the frame after the error coloured into a new table %p, want the renderer's own %p", &s.colors[0], table)
	}
}
