// Command ethbench regenerates every table and figure of the paper's
// evaluation section (§VI): Table I, Table II, and Figures 8 through 15.
// Performance/power/energy rows come from the calibrated cluster model;
// RMSE rows come from real renders of the real kernels. Each experiment
// prints in the paper's row layout, its title saying whether its numbers
// are modeled or measured; -csv dumps machine-readable copies. Every
// experiment also reports its harness wall time, and the run ends with a
// telemetry table showing where the measured-kernel time went (span
// counts, totals, p50/p95/p99).
//
// Usage:
//
//	ethbench                # all experiments
//	ethbench -only fig15    # a single experiment
//	ethbench -csv results/  # also write CSVs
//	ethbench -calibrated    # use this machine's measured kernel costs
//	ethbench -cpuprofile cpu.pb.gz  # pprof capture around the run
//	ethbench -checkpoint bench.ckpt           # record each finished experiment
//	ethbench -checkpoint bench.ckpt -resume   # skip experiments already done
//	ethbench -run-one fig8 -trace w.jsonl     # one experiment as a fleet worker
//
// With -checkpoint, every completed experiment is recorded in an
// atomically-replaced checkpoint file, and SIGINT/SIGTERM stops cleanly
// at the next experiment boundary (exit 3). A later -resume run skips
// every recorded experiment, so a killed overnight sweep picks up where
// it left off instead of replaying hours of finished work.
//
// -run-one is the fleet worker mode ethserve drives: it runs exactly one
// experiment, journaling run_start/run_end to the -trace file. A retried
// attempt appends to the same journal (repairing any torn tail from a
// crashed predecessor) and exits immediately if the journal already
// records the experiment's run_end, so fleet retries are idempotent.
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
	"strings"
	"time"

	"github.com/ascr-ecx/eth/internal/cluster"
	"github.com/ascr-ecx/eth/internal/experiments"
	"github.com/ascr-ecx/eth/internal/fleet"
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
	ckptPath := flag.String("checkpoint", "", "record each completed experiment in this checkpoint file")
	resume := flag.Bool("resume", false, "skip experiments the -checkpoint file records as complete")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics /healthz) on this address for the whole sweep")
	runOne := flag.String("run-one", "", "fleet worker mode: run exactly one experiment, journaling to -trace")
	tracePath := flag.String("trace", "", "worker journal for -run-one (run_start/run_end events; enables idempotent retries)")
	flag.Parse()

	if *resume && *ckptPath == "" {
		log.Fatal("-resume needs -checkpoint: the completed-experiment list lives there")
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

	runs := map[string]func(experiments.Config) (experiments.Result, error){
		"table1": experiments.Table1, "table2": experiments.Table2,
		"fig8": experiments.Fig8, "fig9": experiments.Fig9,
		"fig10": experiments.Fig10, "fig11": experiments.Fig11,
		"fig12": experiments.Fig12, "fig13": experiments.Fig13,
		"fig14": experiments.Fig14, "fig15": experiments.Fig15,
		"codecs": experiments.Codecs,
	}
	order := []string{"table1", "table2", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "codecs"}
	if *only != "" {
		if _, ok := runs[*only]; !ok {
			log.Fatalf("unknown experiment %q", *only)
		}
		order = []string{*only}
	}

	if *runOne != "" {
		if _, ok := runs[*runOne]; !ok {
			log.Fatalf("unknown experiment %q", *runOne)
		}
		os.Exit(runOneExperiment(*runOne, *tracePath, *csvDir, cfg, runs[*runOne]))
	}

	// Load the completed-experiment list when resuming; a missing
	// checkpoint file is a fresh start.
	done := fleet.NewDoneSet()
	if *resume {
		d, err := fleet.LoadDoneSet(*ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		done = d
	}

	// With a checkpoint file, signals stop the sweep cleanly at the next
	// experiment boundary rather than mid-render.
	ctx := context.Background()
	if *ckptPath != "" {
		var stop context.CancelFunc
		ctx, stop = supervise.SignalContext(ctx, nil)
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
	for _, id := range order {
		if srv != nil {
			srv.SetRun(id)
		}
		if done.Has(id) {
			fmt.Printf("==== %s ==== (complete in %s, skipped)\n\n", strings.ToUpper(id), *ckptPath)
			continue
		}
		if ctx.Err() != nil {
			log.Printf("interrupted; %d experiments recorded in %s (-resume continues)", done.Len(), *ckptPath)
			os.Exit(supervise.ExitShutdown)
		}
		t0 := time.Now()
		res, err := runs[id](cfg)
		if err != nil {
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
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, res); err != nil {
				log.Fatal(err)
			}
		}
		if *ckptPath != "" {
			done.Add(id)
			if err := done.Save(*ckptPath, "last="+id); err != nil {
				log.Fatal(err)
			}
		}
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

// runOneExperiment is the fleet worker mode: run exactly one experiment,
// journaling run_start/run_end to the trace file. The journal is the
// attempt ledger — a recorded run_end means a prior attempt already
// finished this experiment (and wrote its CSV), so a fleet retry exits
// 0 without redoing the work. Opening with journal.Append repairs a
// torn tail left by a SIGKILLed predecessor and takes the writer lock,
// enforcing the one-writer-per-journal-file contract against an orphaned
// twin still holding the file.
func runOneExperiment(id, trace, csvDir string, cfg experiments.Config, run func(experiments.Config) (experiments.Result, error)) int {
	var jw *journal.Writer
	if trace != "" {
		w, err := journal.Append(trace)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer w.Close()
		jw = w
		events, err := journal.ReadFile(trace)
		if err != nil {
			log.Print(err)
			return 1
		}
		for _, ev := range events {
			if ev.Type == journal.TypeRunEnd && ev.Detail == "experiment="+id {
				fmt.Printf("==== %s ==== (already complete in %s, skipped)\n", strings.ToUpper(id), trace)
				return 0
			}
		}
	}
	jw.Emit(journal.Event{Type: journal.TypeRunStart, Rank: -1, Step: -1, Detail: "experiment=" + id})
	jw.Sync()
	t0 := time.Now()
	res, err := run(cfg)
	if err != nil {
		jw.Error(-1, -1, err)
		jw.Sync()
		log.Print(err)
		return 1
	}
	fmt.Printf("==== %s ====\n", strings.ToUpper(id))
	if err := res.Table.Fprint(os.Stdout); err != nil {
		log.Print(err)
		return 1
	}
	if csvDir != "" {
		// The artifact lands before run_end: an attempt that dies between
		// the two is retried, never recorded complete without its CSV.
		if err := writeCSV(csvDir, id, res); err != nil {
			log.Print(err)
			return 1
		}
	}
	jw.Emit(journal.Event{
		Type: journal.TypeRunEnd, Rank: -1, Step: -1,
		DurNS: time.Since(t0).Nanoseconds(), Detail: "experiment=" + id,
	})
	jw.Sync()
	return 0
}

// spanTable tabulates where the measured-kernel time went across the
// whole run: every telemetry span with count, total, and latency
// quantiles.
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
