package eth_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/render"
)

// Example is the minimal end-to-end use of the ETH pipeline: synthesize
// a small cosmology dataset, frame a camera against it, render it with
// the raycasting back-end and save the image as a PNG.
func Example() {
	// 1. Synthesize a HACC-like particle dataset (100k particles with
	//    halo clustering).
	params := cosmo.DefaultParams()
	params.Particles = 100_000
	cloud, err := cosmo.Generate(params)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Frame a camera against the data.
	cam := camera.ForBounds(cloud.Bounds())

	// 3. Render with the raycasting back-end, colored by particle speed.
	r, err := render.New("raycast")
	if err != nil {
		log.Fatal(err)
	}
	frame := fb.New(512, 512)
	stats, err := r.Render(frame, cloud, &cam, render.Options{ColorField: "speed"})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Save the image.
	dir, err := os.MkdirTemp("", "eth-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := frame.SavePNG(filepath.Join(dir, "quickstart.png")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered %d particles (%d BVH nodes)\n", stats.Elements, stats.Primitives)
	fmt.Printf("wrote quickstart.png (%d covered pixels)\n", frame.CoveredPixels())
	// Output:
	// rendered 100000 particles (32767 BVH nodes)
	// wrote quickstart.png (180201 covered pixels)
}
