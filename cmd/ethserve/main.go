// Command ethserve is the experiment fleet scheduler: it accepts
// experiment specs (from a sweep file, or live over a local HTTP API),
// shards them across a bounded pool of supervised worker subprocesses,
// and survives anything short of losing the fleet directory. Every spec
// runs under a lease — no journal progress within the stall window and
// the worker is killed and the spec requeued — and failures walk a
// retry→requeue→quarantine ladder with capped backoff. The merged
// journal is the fleet's only durable state: each submit event carries
// its spec, and a submit, completion or quarantine is fsynced before
// the scheduler moves on, so a SIGKILLed scheduler resumes with
// -resume (replaying the journal) and completes every remaining spec
// exactly once.
//
// Usage:
//
//	ethserve -dir fleet -sweep sweep.json             # batch: run the sweep, exit
//	ethserve -dir fleet -addr 127.0.0.1:8080          # serve: steer over HTTP
//	ethserve -dir fleet -resume                       # finish a killed fleet
//	ethserve -dir fleet -sweep sweep.json -obs :9100  # live /metrics alongside
//
// Batch mode exits 0 when every spec completed, 1 when any spec was
// quarantined, and 3 (ExitShutdown) when a signal drained the fleet
// early — the queue is in the journal, so -resume finishes it. Serve mode
// runs until SIGINT/SIGTERM or POST /drain.
//
// The fleet directory layout:
//
//	fleet.jsonl        merged journal (all workers + scheduler events)
//	specs/<id>/        per-spec worker journal (+ quarantine.tail on failure)
//	artifacts/<id>/    per-spec outputs (CSVs, renders)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"github.com/ascr-ecx/eth/internal/fleet"
	"github.com/ascr-ecx/eth/internal/obs"
	"github.com/ascr-ecx/eth/internal/supervise"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethserve: ")

	dir := flag.String("dir", "fleet", "fleet directory (journal, per-spec state)")
	workers := flag.Int("workers", 2, "worker pool size")
	sweep := flag.String("sweep", "", "submit every spec in this JSON sweep file")
	addr := flag.String("addr", "", "serve the steering API on this address (empty: batch mode)")
	resume := flag.Bool("resume", false, "replay the fleet journal and finish its queue")
	retries := flag.Int("retries", 2, "default retry budget per spec")
	stall := flag.Duration("stall", 2*time.Minute, "kill a worker with no journal progress for this long (0: no lease watchdog)")
	grace := flag.Duration("grace", 5*time.Second, "SIGTERM-to-SIGKILL grace when revoking a lease")
	runBin := flag.String("run-bin", "ethrun", "binary for kind=run specs")
	benchBin := flag.String("bench-bin", "ethbench", "binary for kind=bench specs")
	obsAddr := flag.String("obs", "", "serve observability (/metrics /healthz) on this address")
	verbose := flag.Bool("v", false, "stream worker stdout/stderr instead of discarding it")
	flag.Parse()

	if *sweep == "" && !*resume && *addr == "" {
		log.Fatal("nothing to do: need -sweep, -resume, or -addr")
	}

	cfg := fleet.Config{
		Dir:      *dir,
		Workers:  *workers,
		Retries:  *retries,
		Stall:    *stall,
		Grace:    *grace,
		RunBin:   *runBin,
		BenchBin: *benchBin,
		Resume:   *resume,
	}
	if *verbose {
		cfg.Stdout, cfg.Stderr = os.Stdout, os.Stderr
	}
	s, err := fleet.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := supervise.SignalContext(context.Background(), nil)
	defer stop()

	if *obsAddr != "" {
		srv, err := obs.Start(obs.Config{Addr: *obsAddr, Role: "fleet"})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("obs: serving %s/metrics\n", srv.URL())
	}

	if *sweep != "" {
		specs, err := fleet.LoadSweep(*sweep)
		if err != nil {
			log.Fatal(err)
		}
		submitted := 0
		for _, sp := range specs {
			switch err := s.Submit(sp); {
			case err == nil:
				submitted++
			case errors.Is(err, fleet.ErrDuplicate) && *resume:
				// Resubmitting the sweep of a resumed fleet is expected:
				// the journal already carries these specs.
			default:
				log.Fatalf("submitting %s: %v", sp.ID, err)
			}
		}
		fmt.Printf("fleet: %d specs submitted from %s\n", submitted, *sweep)
	}

	var api *http.Server
	if *addr != "" {
		api = &http.Server{Addr: *addr, Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := api.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("api: %v", err)
			}
		}()
		fmt.Printf("fleet: steering API on http://%s\n", *addr)
	} else {
		// Batch mode: drain as soon as the queue runs dry.
		go func() {
			if s.WaitIdle(ctx) == nil {
				s.Drain()
			}
		}()
	}

	runErr := s.Run(ctx)
	if api != nil {
		api.Close()
	}

	c := s.Counts()
	fmt.Printf("fleet: submitted=%d completed=%d quarantined=%d queued=%d retries=%d requeues=%d\n",
		c.Submitted, c.Completed, c.Quarantined, c.Queued, c.Retries, c.Requeues)
	for _, q := range s.Quarantined() {
		fmt.Printf("fleet: quarantined %s after %d attempts: %s (tail: %s)\n", q.ID, q.Attempts, q.Err, q.TailPath)
	}

	switch {
	case runErr != nil && errors.Is(runErr, supervise.ErrShutdown):
		log.Printf("drained on signal; %d specs still queued (-resume finishes them)", c.Queued)
		os.Exit(supervise.ExitShutdown)
	case runErr != nil:
		log.Fatal(runErr)
	case c.Quarantined > 0:
		os.Exit(1)
	}
}
