// Package obs is ETH's live telemetry plane: an embeddable HTTP server
// every role (ethsim, ethviz, ethrun, ethbench) can enable with an
// `-obs addr` flag. Where PR 1's telemetry and journals are post-hoc —
// read after the run ends — obs makes the same registries observable
// *while* the run executes, which is the observation channel ISAAC-style
// steerable in-situ loops start from and the substrate the ROADMAP's
// multi-viewer fan-out builds on.
//
// Endpoints:
//
//   - /metrics  — Prometheus text exposition rendered live from a
//     telemetry.Registry: counters, gauges, and every duration
//     histogram as a summary in seconds with p50/p95/p99 quantiles and
//     _sum/_count. Every sample carries role/run labels.
//   - /healthz — liveness JSON derived from the supervise watchdog:
//     a restart-budget-exhausted or failed role makes the process
//     unhealthy (HTTP 503).
//   - /readyz  — readiness: a currently-stalled role makes the process
//     not ready (HTTP 503) until its restart makes progress again.
//   - /events  — NDJSON live tail of the run journal, bounded by the
//     journal's kept tail; a subscriber that falls behind it drops the
//     oldest events and the drop itself is journaled and streamed (the
//     backpressure contract the frame fan-out hub inherits).
//   - /trace   — Chrome trace-event (catapult) export of the journal's
//     kept events, loadable in chrome://tracing or Perfetto.
//   - /debug/pprof/* — the standard profiling handlers on the same mux.
//
// The server is deliberately read-only and allocation-respectful: a
// scrape renders from atomic metric reads into a reused buffer, so
// attaching obs to a run must not perturb the hot path's zero-alloc
// steady state (asserted by this package's alloc and chaos tests).
package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

// Obs-plane telemetry: the observers observe themselves.
var (
	ctrScrapes     = telemetry.Default.Counter("obs.scrapes")
	ctrDropped     = telemetry.Default.Counter("obs.events_dropped")
	gaugeSubs      = telemetry.Default.Gauge("obs.subscribers")
	histScrape     = telemetry.Default.Histogram("obs.scrape")
	histExposition = telemetry.Default.Histogram("obs.exposition")
)

// Config shapes one observability server.
type Config struct {
	// Addr is the listen address ("127.0.0.1:9464", ":0" for an
	// ephemeral port — read the bound address back with Server.Addr).
	Addr string
	// Role labels every exposed metric with this process's role ("sim",
	// "viz", "run", "bench"). Empty means "eth".
	Role string
	// Run labels every exposed metric with a run identifier (trace path,
	// experiment id). Mutable mid-run via Server.SetRun.
	Run string
	// Registry is the metric source; nil means telemetry.Default.
	Registry *telemetry.Registry
	// Journal, when set, feeds /events and /trace from the events the
	// in-process run journal keeps.
	Journal *journal.Writer
	// Health feeds /healthz and /readyz; nil creates a private Health
	// that reports healthy/ready (no supervised roles).
	Health *Health
}

func (c Config) role() string {
	if c.Role == "" {
		return "eth"
	}
	return c.Role
}

func (c Config) registry() *telemetry.Registry {
	if c.Registry == nil {
		return telemetry.Default
	}
	return c.Registry
}

// Server is a running observability endpoint. Create with Start, stop
// with Close.
type Server struct {
	cfg    Config
	health *Health
	ln     net.Listener
	srv    *http.Server

	mu  sync.Mutex
	run string // guarded by mu

	// expo is the reused exposition scratch (one scrape at a time renders
	// into it; concurrent scrapes serialize on its lock, which is the
	// zero-alloc-respecting tradeoff: scrapers wait, the run never does).
	expo expoScratch
}

// Start binds cfg.Addr and serves the observability endpoints in a
// background goroutine until Close.
func Start(cfg Config) (*Server, error) {
	h := cfg.Health
	if h == nil {
		h = NewHealth()
	}
	s := &Server{cfg: cfg, health: h, run: cfg.Run}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/", s.handleIndex)
	// The stdlib profiling handlers normally self-register on the default
	// mux; wire them explicitly so the obs mux is self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	//lint:ignore nakedgo http.Serve returns ErrServerClosed on Close; nothing to forward
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Health returns the server's health tracker — the supervise.Observer
// to hang on a supervisor config.
func (s *Server) Health() *Health { return s.health }

// SetRun updates the run label on subsequently rendered metrics (e.g.
// ethbench advancing through a sweep's experiments).
func (s *Server) SetRun(run string) {
	s.mu.Lock()
	s.run = run
	s.mu.Unlock()
}

// Close stops the server immediately (in-flight /events streams are cut).
func (s *Server) Close() error { return s.srv.Close() }

// handleIndex lists the endpoints, so a browser pointed at the root can
// navigate.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "eth observability plane (role=%s)\n\n", s.cfg.role())
	fmt.Fprint(w, "/metrics   Prometheus text exposition\n")
	fmt.Fprint(w, "/healthz   liveness (watchdog restart budget)\n")
	fmt.Fprint(w, "/readyz    readiness (watchdog stall state)\n")
	fmt.Fprint(w, "/events    NDJSON live tail of the run journal\n")
	fmt.Fprint(w, "/trace     Chrome trace-event export of the span tree\n")
	fmt.Fprint(w, "/debug/pprof/  profiling\n")
}
