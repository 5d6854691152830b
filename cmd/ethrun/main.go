// Command ethrun executes one ETH experiment configuration and prints a
// report — the single-shot harness entry point for design-space
// exploration. It supports both execution modes:
//
//   - measured (default): runs the real pipelines on synthetic or
//     exported data at laptop scale;
//   - modeled (-modeled): runs the calibrated cluster model at
//     paper-scale node counts, reporting time, power, and energy.
//
// Examples:
//
//	ethrun -workload hacc -particles 200000 -algorithm gsplat -ranks 4
//	ethrun -workload hacc -data 'data/*.ethd' -algorithm raycast -mode socket
//	ethrun -modeled -algorithm raycast -nodes 400 -elements 1e9 -images 500
//	ethrun -steps 50 -trace run.jsonl -watchdog 30s -max-restarts 3
//	ethrun -steps 50 -trace run.jsonl -resume   # continue a crashed run
//	ethrun -spec job.json -retries 2 -watchdog 30s -trace run.jsonl
//
// A measured experiment is one layout.Spec, loaded from -spec or filled
// from the experiment flags; the journal, observability, robustness and
// supervision flags apply to it the same way in both cases.
//
// Supervised runs (-watchdog, -max-restarts, -resume) drain on the first
// SIGINT/SIGTERM and exit 3; a second signal hard-aborts with exit 4; an
// exhausted restart budget exits 5.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/ascr-ecx/eth/internal/cluster"
	"github.com/ascr-ecx/eth/internal/core"
	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/faults"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/layout"
	"github.com/ascr-ecx/eth/internal/obs"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethrun: ")

	// Shared flags.
	algorithm := flag.String("algorithm", "raycast",
		fmt.Sprintf("rendering back-end, one of %v", render.Algorithms()))
	ratio := flag.Float64("sampling", 1.0, "spatial sampling ratio in (0, 1]")

	// Observability flags.
	trace := flag.String("trace", "", "write the run journal (JSONL) to this file")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics /healthz /events /trace) on this address while the run executes")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")

	// Measured-mode flags.
	workload := flag.String("workload", "hacc", "measured: synthetic workload (hacc or xrage)")
	dataGlob := flag.String("data", "", "measured: replay exported files instead of synthesizing")
	particles := flag.Int("particles", 200_000, "measured: hacc particle count")
	grid := flag.Int("grid", 64, "measured: xrage longest grid edge")
	steps := flag.Int("steps", 1, "measured: time steps")
	ranks := flag.Int("ranks", 1, "measured: proxy pairs")
	width := flag.Int("width", 512, "measured: image width")
	height := flag.Int("height", 512, "measured: image height")
	imagesM := flag.Int("images", 3, "measured: images per step")
	mode := flag.String("mode", "unified", "measured: coupling mode (unified or socket)")
	codec := flag.String("codec", "raw",
		fmt.Sprintf("measured: socket-mode wire codec, one of %v", transport.Codecs()))
	method := flag.String("method", "random", "measured: sampling method (random, stride, stratified)")
	out := flag.String("out", "", "measured: directory for PNG artifacts")

	// Robustness flags (socket mode): fault replay + degradation policy.
	faultsFile := flag.String("faults", "", "measured: replay a fault schedule file over the socket transport")
	faultSeed := flag.Int64("faultseed", 1, "measured: seed for fault schedule + backoff jitter")
	retries := flag.Int("retries", 0, "measured: reconnect+resume attempts per stuck step")
	skips := flag.Int("skips", 0, "measured: steps that may be skipped after retries exhaust")
	ioTimeout := flag.Duration("iotimeout", 0, "measured: per-operation socket deadline (0 = none)")

	// Supervision flags: watchdog + restart-with-resume + crash recovery.
	watchdog := flag.Duration("watchdog", 0, "measured: stall watchdog timeout per pair (0 = no watchdog); implies supervision")
	maxRestarts := flag.Int("max-restarts", 0, "measured: restarts allowed per pair before the run fails; implies supervision")
	resume := flag.Bool("resume", false, "measured: continue a crashed run's -trace journal, each rank after its last checkpointed step (implies supervision)")

	// Job-layout file (paper §VII).
	specFile := flag.String("spec", "", "run a JSON job-layout file in place of the measured experiment flags (run flags still apply)")

	// Modeled-mode flags.
	modeled := flag.Bool("modeled", false, "run the cluster model instead of real pipelines")
	nodes := flag.Int("nodes", 400, "modeled: node count")
	elements := flag.Float64("elements", 1e9, "modeled: dataset elements")
	pixels := flag.Int("pixels", 1<<20, "modeled: pixels per image")
	imagesPerStep := flag.Int("imagesPerStep", 500, "modeled: images per step")
	timeSteps := flag.Int("timeSteps", 1, "modeled: time steps")
	calibrated := flag.Bool("calibrated", false, "modeled: use this machine's measured kernel costs")

	flag.Parse()

	stopProfiles := startProfiles(*cpuprofile, *memprofile)
	run := runArgs{
		trace: *trace, obsAddr: *obsAddr,
		faultsFile: *faultsFile, faultSeed: *faultSeed,
		retries: *retries, skips: *skips, ioTimeout: *ioTimeout,
		watchdog: *watchdog, maxRestarts: *maxRestarts, resume: *resume,
	}
	switch {
	case *specFile != "":
		spec, err := layout.Load(*specFile)
		if err != nil {
			log.Fatal(err)
		}
		runMeasured(spec, run)
	case *modeled:
		runModeled(*algorithm, *nodes, *elements, *ratio, *pixels, *imagesPerStep, *timeSteps, *calibrated)
	default:
		// The experiment flags describe the same document a job-layout
		// file holds, so they fill one and take the -spec path from there.
		spec := &layout.Spec{
			Name: *workload,
			Workload: layout.WorkloadSpec{
				Kind: *workload, Particles: *particles, Grid: *grid,
				Steps: *steps, Seed: 1,
			},
			Pairs:     *ranks,
			Coupling:  *mode,
			Algorithm: *algorithm,
			Image:     layout.ImageSpec{Width: *width, Height: *height, ImagesPerStep: *imagesM},
			Sampling:  layout.SamplingSpec{Ratio: *ratio, Method: *method},
			Codec:     *codec,
			OutDir:    *out,
		}
		if *dataGlob != "" {
			spec.Name = "replay"
			spec.Workload = layout.WorkloadSpec{Kind: "disk", Glob: *dataGlob}
		}
		if err := spec.Validate(); err != nil {
			log.Fatal(err)
		}
		runMeasured(spec, run)
	}
	stopProfiles()
}

// startProfiles begins opt-in pprof capture around the run; the returned
// stop function flushes the CPU profile and writes the heap profile.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}
	}
}

// startObs boots the live observability server when -obs was given and
// returns it (nil otherwise). run labels the exposed metrics; jw feeds
// /events and /trace.
func startObs(addr, role, run string, jw *journal.Writer) *obs.Server {
	if addr == "" {
		return nil
	}
	srv, err := obs.Start(obs.Config{Addr: addr, Role: role, Run: run, Journal: jw})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("obs: serving %s/metrics\n", srv.URL())
	return srv
}

// runArgs carries the flags that shape how a measured run executes —
// journal, live telemetry, degradation policy, supervision — as opposed
// to what it computes, which is the layout.Spec.
type runArgs struct {
	trace          string
	obsAddr        string
	faultsFile     string
	faultSeed      int64
	retries, skips int
	ioTimeout      time.Duration
	watchdog       time.Duration
	maxRestarts    int
	resume         bool
}

// supervised reports whether any supervision flag was given.
func (a runArgs) supervised() bool {
	return a.watchdog > 0 || a.maxRestarts > 0 || a.resume
}

// buildPolicy assembles the socket-mode degradation policy from the
// robustness flags, loading and parsing the fault schedule if one was
// requested.
func buildPolicy(a runArgs, socket bool) coupling.Policy {
	pol := coupling.Policy{
		MaxRetries: a.retries,
		MaxSkips:   a.skips,
		IOTimeout:  a.ioTimeout,
		Seed:       a.faultSeed,
	}
	if a.faultsFile != "" {
		if !socket {
			log.Fatal("-faults requires socket coupling (faults are injected into the transport layer)")
		}
		text, err := os.ReadFile(a.faultsFile)
		if err != nil {
			log.Fatal(err)
		}
		sched, err := faults.Parse(string(text), a.faultSeed)
		if err != nil {
			log.Fatal(err)
		}
		pol.Faults = sched
	}
	return pol
}

// runMeasured executes one job layout (§VII: "the user simply changes the
// job layout file") — loaded from -spec or filled from the experiment
// flags — under the run flags, and prints the report.
func runMeasured(spec *layout.Spec, a runArgs) {
	if a.resume && a.trace == "" {
		log.Fatal("-resume needs -trace: the journal it continues records each rank's progress")
	}
	pol := buildPolicy(a, spec.Coupling == "socket")
	// A nil journal keeps the run's events in memory only. On -resume,
	// reopen the crashed run's journal (a torn final line from kill -9 is
	// repaired on open) so the resumed events extend the same file, and
	// replay it for each rank's last checkpointed step.
	var (
		jw      *journal.Writer
		resumed []journal.Event
		err     error
	)
	switch {
	case a.resume:
		jw, resumed, err = journal.Reopen(a.trace)
	case a.trace != "":
		jw, err = journal.Create(a.trace)
	}
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "eth-rendezvous-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	mspec, err := spec.ToMeasuredSpec(dir)
	if err != nil {
		os.RemoveAll(dir)
		log.Fatal(err)
	}
	mspec.Journal = jw
	mspec.Resume = resumed
	mspec.Policy = pol
	if a.supervised() {
		mspec.Supervise = &supervise.Config{
			MaxRestarts: a.maxRestarts,
			Stall:       a.watchdog,
		}
		// First SIGINT/SIGTERM drains the in-flight step and exits with
		// the shutdown code; a second hard-aborts.
		ctx, stop := supervise.SignalContext(context.Background(), jw)
		defer stop()
		mspec.Ctx = ctx
	}
	if srv := startObs(a.obsAddr, "run", spec.Name, jw); srv != nil {
		defer srv.Close()
		if mspec.Supervise != nil {
			// The obs health tracker observes every pair's watchdog, which is
			// what makes /healthz and /readyz report live supervision state.
			mspec.Supervise.Observer = srv.Health()
		}
	}
	res, err := core.RunMeasured(mspec)
	if err != nil {
		log.Print(err)
		if jw != nil {
			jw.Close()
		}
		os.RemoveAll(dir)
		os.Exit(supervise.ExitCode(err))
	}
	fmt.Printf("measured run: %s on %s, %d ranks, %s coupling\n",
		spec.Algorithm, mspec.Workload.Name, max(spec.Pairs, 1), mspec.Mode)
	fmt.Printf("  wall         %.3f s\n", res.Wall.Seconds())
	fmt.Printf("  render       %.3f s (summed across ranks)\n", res.RenderTime.Seconds())
	fmt.Printf("  elements     %d (last step, after sampling)\n", res.Elements)
	fmt.Printf("  interface    %.2f MB moved\n", float64(res.BytesMoved)/1e6)
	if res.CompositeStats.MessagesMoved > 0 {
		fmt.Printf("  composite    %.2f MB over %d rounds\n",
			float64(res.CompositeStats.BytesMoved)/1e6, res.CompositeStats.Rounds)
	}
	if spec.OutDir != "" {
		fmt.Printf("  artifacts    %s\n", spec.OutDir)
	}
	fmt.Println()
	if err := res.PhaseTable().Fprint(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n  journal      %s (%d events)\n", a.trace, len(res.Events))
	}
}

func runModeled(alg string, nodes int, elements, ratio float64, pixels, images, steps int, calibrated bool) {
	costs := cluster.DefaultCosts()
	if calibrated {
		fmt.Println("calibrating against this machine's kernels...")
		costs = cluster.Calibrate(0).Costs()
	}
	cost, err := costs.Get(alg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := cluster.Simulate(cluster.Hikari(nodes), cluster.Job{
		Algorithm:      cost,
		Elements:       elements,
		SamplingRatio:  ratio,
		PixelsPerImage: pixels,
		ImagesPerStep:  images,
		TimeSteps:      steps,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modeled run: %s, %.3g elements, %d nodes, sampling %.2f\n", alg, elements, nodes, orOne(ratio))
	fmt.Printf("  time         %.1f s (setup %.1f, compute %.1f, comm %.1f)\n",
		res.Seconds, res.SetupSeconds, res.ComputeSeconds, res.CommSeconds)
	fmt.Printf("  power        %.1f kW avg (%.1f kW dynamic), utilization %.2f\n",
		res.AvgWatts/1000, res.DynWatts/1000, res.Utilization)
	fmt.Printf("  energy       %.2f MJ\n", res.EnergyJ/1e6)
}

func orOne(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
