// Command ethbench regenerates every table and figure of the paper's
// evaluation section (§VI): Table I, Table II, and Figures 8 through 15.
// Performance/power/energy rows come from the calibrated cluster model;
// RMSE rows come from real renders of the real kernels. Each experiment
// prints in the paper's row layout, its title saying whether its numbers
// are modeled or measured; -csv dumps machine-readable copies. Every
// experiment also reports its harness wall time, and the run ends with a
// telemetry table showing where the measured-kernel time went (each
// duration histogram's count, total, p50/p95/p99).
//
// Usage:
//
//	ethbench                # all experiments
//	ethbench -only fig15    # a single experiment
//	ethbench -csv results/  # also write CSVs
//	ethbench -calibrated    # use this machine's measured kernel costs
//	ethbench -cpuprofile cpu.pb.gz  # pprof capture around the run
//	ethbench -trace bench.jsonl           # journal each experiment
//	ethbench -trace bench.jsonl -resume   # skip experiments already done
//
// With -trace, each experiment is journaled as run_start, then its CSV
// (with -csv), then run_end, fsynced, and SIGINT/SIGTERM stops cleanly
// at the next experiment boundary (exit 3). A later -resume run appends
// to the same journal (repairing a torn tail a kill -9 left) and skips
// every experiment it records a run_end for, so a killed overnight sweep
// picks up where it left off instead of replaying hours of finished
// work. The fleet's bench worker is this same loop over one experiment:
// -only <id> -trace <journal> -csv <dir>, plus -resume on a retry, so
// fleet retries are idempotent.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"github.com/ascr-ecx/eth/internal/cluster"
	"github.com/ascr-ecx/eth/internal/experiments"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/metrics"
	"github.com/ascr-ecx/eth/internal/obs"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethbench: ")

	only := flag.String("only", "", "run a single experiment (table1, table2, fig8..fig15, codecs)")
	csvDir := flag.String("csv", "", "directory to write CSV copies")
	calibrated := flag.Bool("calibrated", false, "use this machine's measured kernel costs for the model")
	particles := flag.Int("particles", 200_000, "particle count for the measured (RMSE) renders")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	noTiming := flag.Bool("notiming", false, "suppress per-experiment timing and the telemetry summary")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics /healthz) on this address for the whole sweep")
	tracePath := flag.String("trace", "", "journal each experiment's run_start and run_end (JSONL) to this file")
	resume := flag.Bool("resume", false, "continue the -trace journal, skipping experiments it records as finished")
	flag.Parse()

	if *resume && *tracePath == "" {
		log.Fatal("-resume needs -trace: the journal it continues records each finished experiment")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}

	cfg := experiments.DefaultConfig()
	cfg.MeasuredParticles = *particles
	if *calibrated {
		fmt.Println("calibrating cost models against this machine's kernels...")
		cfg.Costs = cluster.Calibrate(0).Costs()
		fmt.Println("note: calibrated mode reflects this repository's Go kernels;")
		fmt.Println("default mode reflects the paper's published VTK/OSPRay runtimes.")
		fmt.Println()
	}

	runs := experiments.Experiments
	if *only != "" {
		i := slices.IndexFunc(runs, func(e experiments.Experiment) bool { return e.ID == *only })
		if i < 0 {
			log.Fatalf("unknown experiment %q", *only)
		}
		runs = runs[i : i+1]
	}

	// The journal is the sweep's ledger: an experiment is finished once
	// it records the experiment's run_end. A missing journal on -resume
	// is a fresh start.
	var jw *journal.Writer
	finished := map[string]bool{}
	ctx := context.Background()
	if *tracePath != "" {
		var (
			events []journal.Event
			err    error
		)
		if *resume {
			jw, events, err = journal.Reopen(*tracePath)
		} else {
			jw, err = journal.Create(*tracePath)
		}
		if err != nil {
			log.Fatal(err)
		}
		defer jw.Close()
		for _, ev := range events {
			if ev.Type == journal.TypeRunEnd {
				finished[strings.TrimPrefix(ev.Detail, "experiment=")] = true
			}
		}
		// Signals stop the sweep cleanly at the next experiment boundary
		// rather than mid-render.
		var stop context.CancelFunc
		ctx, stop = supervise.SignalContext(ctx, jw)
		defer stop()
	}

	// A long overnight sweep can be watched live: the obs server spans
	// every experiment, and the run label tracks the one in flight.
	var srv *obs.Server
	if *obsAddr != "" {
		var err error
		srv, err = obs.Start(obs.Config{Addr: *obsAddr, Role: "bench"})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("obs: serving %s/metrics\n", srv.URL())
	}

	telemetry.Default.Reset()
	for _, e := range runs {
		id := e.ID
		if srv != nil {
			srv.SetRun(id)
		}
		if finished[id] {
			fmt.Printf("==== %s ==== (complete in %s, skipped)\n\n", strings.ToUpper(id), *tracePath)
			continue
		}
		if ctx.Err() != nil {
			log.Printf("interrupted; %d experiments recorded in %s (-resume continues)", len(finished), *tracePath)
			os.Exit(supervise.ExitShutdown)
		}
		jw.Emit(journal.Event{Type: journal.TypeRunStart, Rank: -1, Step: -1, Detail: "experiment=" + id})
		jw.Sync()
		t0 := time.Now()
		res, err := e.Run(cfg)
		if err != nil {
			jw.Error(-1, -1, err)
			jw.Sync()
			log.Fatal(err)
		}
		wall := time.Since(t0)
		fmt.Printf("==== %s ====\n", strings.ToUpper(id))
		if err := res.Table.Fprint(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if !*noTiming {
			fmt.Printf("(harness: %.3f s)\n", wall.Seconds())
		}
		fmt.Println()
		// The CSV lands before run_end: an experiment killed between the
		// two is rerun, never recorded finished without its CSV.
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, res); err != nil {
				log.Fatal(err)
			}
		}
		jw.Emit(journal.Event{
			Type: journal.TypeRunEnd, Rank: -1, Step: -1,
			DurNS: wall.Nanoseconds(), Detail: "experiment=" + id,
		})
		if err := jw.Sync(); err != nil {
			log.Fatal(err)
		}
		finished[id] = true
	}

	if !*noTiming {
		if err := spanTable().Fprint(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
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

// spanTable tabulates where the measured-kernel time went across the
// whole run: every telemetry duration histogram with count, total, and
// latency quantiles.
func spanTable() *metrics.Table {
	t := metrics.NewTable("Where the time went (telemetry spans) [measured]",
		"span", "count", "total s", "p50 ms", "p95 ms", "p99 ms")
	for _, s := range telemetry.Default.SpanStats() {
		t.AddRow(s.Name, s.Count, s.Total.Seconds(),
			float64(s.P50)/1e6, float64(s.P95)/1e6, float64(s.P99)/1e6)
	}
	return t
}

func writeCSV(dir, id string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	if err := res.Table.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
