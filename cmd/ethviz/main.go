// Command ethviz is the visualization-proxy executable: it locates its
// paired simulation proxy through the layout file, connects, receives
// each time step, renders it with the configured back-end, and writes
// image artifacts (§III-C). Start it after ethsim. Each connection
// opens with a request naming the one field the renderer reads (-field,
// else the renderer's default: temperature for volumes, speed for
// particles), so ethsim sends volumes with that field alone, and
// particles with their positions and that field, from the next step on;
// with -ops no request is sent and every array crosses.
//
// Usage:
//
//	ethviz -rank 0 -layout /tmp/eth.layout -algorithm raycast -out frames/
//	ethviz -rank 0 -layout /tmp/eth.layout -trace viz.jsonl -resume -reconnect 3
//
// -trace appends the step journal to a crash-safe JSONL file (a torn
// final line from kill -9 is repaired on reopen); each completed step is
// a checkpoint event fsynced into it. With -resume, a restarted ethviz
// replays that journal and resumes after the rank's last checkpointed
// step instead of re-rendering. -reconnect N redials a lost simulation
// peer up to N times, resuming at the step cursor. SIGINT/SIGTERM drains
// and exits 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/obs"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethviz: ")

	rank := flag.Int("rank", 0, "this proxy pair's rank")
	layout := flag.String("layout", "eth.layout", "globally accessible layout file")
	algorithm := flag.String("algorithm", "raycast",
		fmt.Sprintf("rendering back-end, one of %v", render.Algorithms()))
	width := flag.Int("width", 512, "image width")
	height := flag.Int("height", 512, "image height")
	images := flag.Int("images", 1, "images rendered per time step (orbiting camera)")
	colorField := flag.String("field", "", "scalar field for colormapping (default per workload)")
	iso := flag.Float64("iso", 0, "isovalue for isosurface algorithms (0 = sliding sweep)")
	out := flag.String("out", "", "directory for PNG artifacts (empty = discard)")
	timeout := flag.Duration("timeout", 30*time.Second, "rendezvous timeout")
	ops := flag.String("ops", "", "comma-separated in-situ analysis operations (halos, stats, save)")
	trace := flag.String("trace", "", "append the step journal (JSONL) to this crash-safe file")
	resume := flag.Bool("resume", false, "continue the -trace journal after this rank's last checkpointed step")
	reconnect := flag.Int("reconnect", 0, "redials to survive when the simulation peer is lost mid-run")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics /healthz /events /trace) on this address")
	serve := flag.String("serve", "", "broadcast rendered frames to live viewers (ethwatch) on this address")
	maxSubs := flag.Int("max-subs", 8, "subscriber limit for -serve")
	subQueue := flag.Int("queue", 16, "per-subscriber frame backlog for -serve (overflow drops oldest)")
	history := flag.Int("history", 0, "frames retained for late/resuming viewers (0 = 2*queue)")
	serveCodec := flag.String("serve-codec", "raw", "wire codec for broadcast streams (raw, flate, delta, delta+flate)")
	flag.Parse()

	var opNames []string
	for _, name := range strings.Split(*ops, ",") {
		if name = strings.TrimSpace(name); name != "" {
			opNames = append(opNames, name)
		}
	}
	operations, err := proxy.ParseOperations(opNames)
	if err != nil {
		log.Fatal(err)
	}

	if *resume && *trace == "" {
		log.Fatal("-resume needs -trace: the journal it continues records each step")
	}
	var (
		jw      *journal.Writer
		resumed []journal.Event
	)
	if *trace != "" {
		if *resume {
			jw, resumed, err = journal.Reopen(*trace)
		} else {
			jw, err = journal.Append(*trace)
		}
		if err != nil {
			log.Fatal(err)
		}
		defer jw.Close()
	} else if *obsAddr != "" || *serve != "" {
		// No trace file: /events and /trace stream the run, and the hub's
		// subscriber and steering events need a journal, so keep one in
		// memory.
		jw = journal.New()
	}
	if *obsAddr != "" {
		srv, err := obs.Start(obs.Config{
			Addr: *obsAddr, Role: "viz", Run: *trace, Journal: jw,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("obs: serving %s/metrics\n", srv.URL())
	}
	ctx, stop := supervise.SignalContext(context.Background(), jw)
	defer stop()

	// -serve opens the multi-viewer broadcast hub: every rendered step is
	// fanned out to connected ethwatch viewers, and their steering
	// (camera, isovalue, sampling ratio, codec) flows back through the
	// proxies at step boundaries. The hub runs under the same supervision
	// contract as the proxy pair.
	var h *hub.Hub
	if *serve != "" {
		codec, err := transport.ParseCodec(*serveCodec)
		if err != nil {
			log.Fatal(err)
		}
		h, err = hub.New(hub.Config{
			Addr: *serve, MaxSubs: *maxSubs, Queue: *subQueue, History: *history,
			Codec: codec, Rank: *rank, Journal: jw,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("hub: serving %s (max %d subscribers, codec %s)\n", h.Addr(), *maxSubs, codec)
		hubDone := make(chan error, 1)
		go func() {
			hubDone <- coupling.RunHubSupervised(ctx, h, supervise.Config{
				MaxRestarts: 3, Journal: jw,
			})
		}()
		defer func() {
			if err := h.Close(); err != nil {
				log.Printf("hub: %v", err)
			}
			if err := <-hubDone; err != nil {
				log.Printf("hub: %v", err)
			}
		}()
	}

	vizCfg := proxy.VizConfig{
		Rank: *rank, Width: *width, Height: *height,
		Algorithm: *algorithm,
		Options: render.Options{
			ColorField: *colorField,
			IsoValue:   float32(*iso),
		},
		ImagesPerStep: *images,
		OutDir:        *out,
		Operations:    operations,
		Start:         journal.Cursor(resumed, *rank),
		Journal:       jw,
	}
	if h != nil {
		vizCfg.Publisher = h
		vizCfg.Steering = h
	}
	viz, err := proxy.NewVizProxy(vizCfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := viz.EnsureOutDir(); err != nil {
		log.Fatal(err)
	}
	if start := viz.NextStep(); start > 0 {
		fmt.Printf("rank %d resuming at step %d (journal %s)\n", *rank, start, *trace)
	}

	t0 := time.Now()
	var received int64
	for attempt := 0; ; attempt++ {
		conn, err := transport.DialBackoff(*layout, *rank, transport.Backoff{
			Base: 50 * time.Millisecond, Max: time.Second,
			Attempts: 20, LayoutWait: *timeout,
		})
		if err != nil {
			log.Fatalf("connecting to simulation proxy: %v", err)
		}
		// A signal mid-receive closes the socket, which drains the
		// in-flight step and unblocks the read.
		unblock := make(chan struct{})
		go func() {
			select {
			case <-ctx.Done():
				conn.Close()
			case <-unblock:
			}
		}()
		err = viz.Receive(conn)
		close(unblock)
		received += conn.BytesReceived
		conn.Close()
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			jw.Sync()
			log.Printf("rank %d drained at step %d", *rank, viz.NextStep())
			os.Exit(supervise.ExitShutdown)
		}
		if attempt >= *reconnect {
			log.Fatalf("receiving: %v (link lost %d times, budget %d)", err, attempt+1, *reconnect)
		}
		log.Printf("simulation peer lost at step %d (%v); reconnecting (%d/%d)",
			viz.NextStep(), err, attempt+1, *reconnect)
	}
	wall := time.Since(t0)
	fmt.Printf("rank %d done: %d steps, render %.2fs, wall %.2fs, received %.1f MB\n",
		*rank, len(viz.Results), viz.TotalRenderTime().Seconds(), wall.Seconds(),
		float64(received)/1e6)
	for _, r := range viz.Results {
		fmt.Printf("  step %d: %d elements, %d images, %d primitives, %.3fs\n",
			r.Step, r.Elements, r.Images, r.Primitives, r.Render.Seconds())
		for _, op := range r.Ops {
			fmt.Printf("    %s: %s\n", op.Op, op.Summary)
		}
	}
}
