// Command ethsim is the simulation-proxy executable: it replays exported
// datasets through the in-situ interface, serving one visualization-proxy
// peer per rank over the socket layer (§III-C). Start ethsim first; each
// rank registers its address in the layout file, opens its port, and
// waits. Then start ethviz with the same layout file. A step goes out
// whole until the visualization proxy's field request arrives, then with
// only what its renderer draws: a volume with the one field it names, a
// particle step with positions and that field, without IDs or
// velocities. The request lasts for its connection, so a re-accepted
// peer gets its first step whole. The -data files must be version 2
// ETHD containers: regenerate older dumps with ethgen.
//
// Usage:
//
//	ethsim -data 'data/hacc_step*.ethd' -rank 0 -ranks 4 -layout /tmp/eth.layout
//	ethsim -data 'data/*.ethd' -layout /tmp/eth.layout -max-restarts 3
//
// With -max-restarts N, a lost visualization peer is not fatal: the
// proxy re-opens its port and resumes the restarted peer at the first
// unacknowledged step, up to N times. SIGINT/SIGTERM drains and exits 3.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/obs"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethsim: ")

	dataGlob := flag.String("data", "", "glob of dataset files, one per time step (required)")
	rank := flag.Int("rank", 0, "this proxy pair's rank")
	ranks := flag.Int("ranks", 1, "total proxy pairs (spatial pieces)")
	layout := flag.String("layout", "eth.layout", "globally accessible layout file")
	host := flag.String("host", "", "address to listen on (default loopback)")
	ratio := flag.Float64("sampling", 1.0, "spatial sampling ratio in (0, 1]")
	method := flag.String("method", "random", "sampling method: random, stride, stratified")
	seed := flag.Int64("seed", 1, "sampling seed")
	codec := flag.String("codec", "raw",
		fmt.Sprintf("wire codec, one of %v", transport.Codecs()))
	maxRestarts := flag.Int("max-restarts", 0, "visualization-peer reconnections to survive, resuming each at the first unacknowledged step")
	obsAddr := flag.String("obs", "", "serve live observability (/metrics /healthz /events /trace) on this address")
	flag.Parse()

	if *dataGlob == "" {
		log.Fatal("-data is required")
	}
	m, err := sampling.ParseMethod(*method)
	if err != nil {
		log.Fatal(err)
	}
	src, err := proxy.NewDiskSourceGlob(*dataGlob)
	if err != nil {
		log.Fatalf("opening data: %v", err)
	}
	var jw *journal.Writer
	if *obsAddr != "" {
		// The in-memory journal exists to feed /events and /trace; a nil
		// journal is a no-op sink, so unobserved runs pay nothing.
		jw = journal.New()
		srv, err := obs.Start(obs.Config{
			Addr: *obsAddr, Role: "sim", Run: *dataGlob, Journal: jw,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("obs: serving %s/metrics\n", srv.URL())
	}
	sim, err := proxy.NewSimProxy(proxy.SimConfig{
		Rank: *rank, Ranks: *ranks,
		SamplingRatio:  *ratio,
		SamplingMethod: m,
		Seed:           *seed,
		Codec:          *codec,
		Journal:        jw,
	}, src)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := transport.Listen(*layout, *rank, *host)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("rank %d listening at %s (%d steps), waiting for visualization proxy\n",
		*rank, ln.Addr(), sim.Steps())

	// First signal drains the in-flight step and exits 3; closing the
	// listener unblocks a pending Accept.
	ctx, stop := supervise.SignalContext(context.Background(), nil)
	defer stop()
	sim.SetStop(ctx.Done())
	go func() {
		<-ctx.Done()
		ln.Close()
	}()

	// Re-accept loop: each viz incarnation resumes at the first step the
	// previous one did not acknowledge.
	var total int64
	next, drops := 0, 0
	for next < sim.Steps() {
		c, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				log.Printf("rank %d drained at step %d", *rank, next)
				os.Exit(supervise.ExitShutdown)
			}
			log.Fatal(err)
		}
		conn := transport.NewConn(c)
		n, sent, err := sim.ServeFrom(conn, next)
		conn.Close()
		next = n
		total += sent
		if err == nil {
			continue
		}
		if ctx.Err() != nil || errors.Is(err, proxy.ErrStopped) {
			log.Printf("rank %d drained at step %d", *rank, next)
			os.Exit(supervise.ExitShutdown)
		}
		drops++
		if drops > *maxRestarts {
			log.Fatalf("serving: %v (peer lost %d times, budget %d)", err, drops, *maxRestarts)
		}
		log.Printf("visualization peer lost at step %d (%v); re-accepting (%d/%d)",
			next, err, drops, *maxRestarts)
	}
	fmt.Printf("rank %d done: served %d steps, %.1f MB\n", *rank, sim.Steps(), float64(total)/1e6)
}
