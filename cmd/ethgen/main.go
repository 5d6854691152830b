// Command ethgen synthesizes ETH test datasets and writes them to disk in
// the ETHD container format — the "preliminary run of the simulation"
// step of the paper's workflow (§I): data is exported once, then replayed
// by the simulation proxy in any coupling configuration. It writes
// version 2 containers, every particle step with its IDs and velocities;
// ethsim refuses a dump from a build before version 2, so regenerate it.
//
// Usage:
//
//	ethgen -workload hacc -particles 1000000 -steps 4 -out data/
//	ethgen -workload xrage -size large -steps 12 -out data/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethgen: ")

	workload := flag.String("workload", "hacc", "workload to synthesize: hacc or xrage")
	particles := flag.Int("particles", 1_000_000, "hacc: particle count")
	halos := flag.Int("halos", 200, "hacc: halo count")
	size := flag.String("size", "medium", "xrage: problem size (small, medium, large)")
	steps := flag.Int("steps", 1, "time steps to generate")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", ".", "output directory")
	flag.Parse()

	if *steps <= 0 {
		log.Fatal("steps must be positive")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}

	for step := 0; step < *steps; step++ {
		var (
			ds  data.Dataset
			err error
		)
		switch *workload {
		case "hacc":
			p := cosmo.DefaultParams()
			p.Particles = *particles
			p.Halos = *halos
			p.Seed = *seed
			p.TimeStep = step
			ds, err = cosmo.Generate(p)
		case "xrage":
			var p blast.Params
			switch *size {
			case "small":
				p = blast.SmallParams()
			case "medium":
				p = blast.MediumParams()
			case "large":
				p = blast.LargeParams()
			default:
				log.Fatalf("unknown size %q (want small, medium, large)", *size)
			}
			p.Seed = *seed
			p.TimeStep = step
			ds, err = blast.Generate(p)
		default:
			log.Fatalf("unknown workload %q (want hacc or xrage)", *workload)
		}
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*out, fmt.Sprintf("%s_step%03d.ethd", *workload, step))
		if err := vtkio.WriteFile(path, ds); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d elements, %.1f MB)\n", path, ds.Count(), float64(ds.Bytes())/1e6)
	}
}
