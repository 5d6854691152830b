package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testRegistry builds a private registry with fully deterministic
// contents: fixed counter/gauge values and histogram durations whose
// bucket-bound quantiles are exact.
func testRegistry() *telemetry.Registry {
	reg := &telemetry.Registry{}
	reg.Counter("steps.total").Add(42)
	reg.Counter("transport.bytes").Add(1 << 20)
	reg.Gauge("queue.depth").Set(7)
	h := reg.Histogram("phase.transport")
	for _, us := range []time.Duration{0, 1, 1, 3, 100} {
		h.ObserveDuration(us * time.Microsecond)
	}
	sm := reg.Histogram("phase.render")
	sm.ObserveDuration(2 * time.Millisecond)
	sm.ObserveDuration(8 * time.Millisecond)
	return reg
}

// startServer boots an obs server on an ephemeral port and tears it
// down with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// get fetches a URL and returns status + body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestMetricsGolden pins the exact exposition bytes for a deterministic
// registry. Regenerate with `go test ./internal/obs -run Golden -update`
// after an intentional format change.
func TestMetricsGolden(t *testing.T) {
	s := startServer(t, Config{Role: "test", Run: "golden", Registry: testRegistry()})
	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", code)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if string(body) != string(want) {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", body, want)
	}
}

// TestExpositionRoundTrip scrapes a live server and re-reads the text
// through the package's own parser: types, labels, and values must
// survive the trip.
func TestExpositionRoundTrip(t *testing.T) {
	s := startServer(t, Config{Role: "viz", Run: "run-1", Registry: testRegistry()})
	code, body := get(t, s.URL()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", code)
	}
	exp, err := ParseExposition(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("parsing own exposition: %v", err)
	}

	if typ := exp.Types["eth_steps_total"]; typ != "counter" {
		t.Errorf("eth_steps_total type = %q, want counter", typ)
	}
	if v, ok := exp.Value("eth_steps_total"); !ok || v != 42 {
		t.Errorf("eth_steps_total = %v (present=%v), want 42", v, ok)
	}
	if v, ok := exp.Value("eth_queue_depth"); !ok || v != 7 {
		t.Errorf("eth_queue_depth = %v (present=%v), want 7", v, ok)
	}
	for _, sm := range exp.Samples {
		if sm.Label("role") != "viz" || sm.Label("run") != "run-1" {
			t.Fatalf("sample %s labels = %v, want role=viz run=run-1", sm.Name, sm.Labels)
		}
	}

	// Every histogram is a summary in seconds: _sum is the nanosecond
	// total scaled, and the top quantile is clamped to the largest
	// observation.
	if typ := exp.Types["eth_phase_transport_seconds"]; typ != "summary" {
		t.Errorf("eth_phase_transport_seconds type = %q, want summary", typ)
	}
	if v, ok := exp.Value("eth_phase_transport_seconds_count"); !ok || v != 5 {
		t.Errorf("summary _count = %v, want 5", v)
	}
	if v, ok := exp.Value("eth_phase_transport_seconds_sum"); !ok || math.Abs(v-105e-6) > 1e-12 {
		t.Errorf("summary _sum = %v, want 105e-6", v)
	}
	if q := exp.Find("eth_phase_transport_seconds"); len(q) != 3 || q[2].Value != 100e-6 {
		t.Errorf("summary quantiles = %+v, want p99 = 100e-6", q)
	}

	// Summary invariants: quantiles present and ordered, count exact.
	quants := exp.Find("eth_phase_render_seconds")
	if len(quants) != 3 {
		t.Fatalf("summary quantiles = %d, want 3", len(quants))
	}
	if quants[0].Label("quantile") != "0.5" || quants[0].Value > quants[2].Value {
		t.Errorf("summary quantiles malformed: %+v", quants)
	}
	if v, ok := exp.Value("eth_phase_render_seconds_count"); !ok || v != 2 {
		t.Errorf("summary _count = %v, want 2", v)
	}
}

// TestCounterTotalNotDoubled checks the renderer does not stutter
// `_total_total` for counters already named *_total.
func TestCounterTotalNotDoubled(t *testing.T) {
	reg := &telemetry.Registry{}
	reg.Counter("frames.total").Inc()
	s := startServer(t, Config{Registry: reg})
	_, body := get(t, s.URL()+"/metrics")
	if strings.Contains(string(body), "_total_total") {
		t.Errorf("exposition stutters _total_total:\n%s", body)
	}
	if !strings.Contains(string(body), "eth_frames_total{") {
		t.Errorf("eth_frames_total missing:\n%s", body)
	}
}

// TestHealthEndpoints drives the Health tracker through the observer
// callbacks and checks /healthz and /readyz flip exactly as specified.
func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	s := startServer(t, Config{Health: h, Registry: &telemetry.Registry{}})

	// No roles: healthy and ready.
	if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("empty healthz = %d, want 200", code)
	}
	if code, _ := get(t, s.URL()+"/readyz"); code != http.StatusOK {
		t.Fatalf("empty readyz = %d, want 200", code)
	}

	// Progressing role: still both OK, cursor reported.
	h.RoleProgress("pair0", 5)
	h.RoleCursor("pair0", func() int64 { return 9 })
	code, body := get(t, s.URL()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("progressing healthz = %d, want 200", code)
	}
	var st HealthStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Roles) != 1 || st.Roles[0].Progress != 5 || st.Roles[0].Cursor != 9 {
		t.Fatalf("healthz roles = %+v, want pair0 progress=5 cursor=9", st.Roles)
	}

	// Stall: not ready, still live.
	h.RoleStalled("pair0", 2*time.Second)
	if code, _ := get(t, s.URL()+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("stalled readyz = %d, want 503", code)
	}
	if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("stalled healthz = %d, want 200 (stall is not death)", code)
	}

	// Restart that makes progress again: ready recovers.
	h.RoleRestarted("pair0", 1, 3, "stall")
	h.RoleProgress("pair0", 6)
	if code, _ := get(t, s.URL()+"/readyz"); code != http.StatusOK {
		t.Fatalf("recovered readyz = %d, want 200", code)
	}

	// Clean shutdown stays healthy.
	h.RoleDone("pair0", fmt.Errorf("drain: %w", supervise.ErrShutdown))
	if code, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("shutdown healthz = %d, want 200", code)
	}

	// Budget exhaustion is terminal: unhealthy and unready.
	h.RoleDone("pair1", fmt.Errorf("giving up: %w", supervise.ErrRestartBudget))
	code, body = get(t, s.URL()+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failed healthz = %d, want 503", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Healthy || st.Ready {
		t.Fatalf("failed status = %+v, want unhealthy+unready", st)
	}
}

// TestHealthWatchdogStall wires Health to a real supervisor whose task
// never progresses: the watchdog stall must flip /readyz to 503 while
// the run is live, and the exhausted restart budget must flip /healthz
// to 503 when it gives up.
func TestHealthWatchdogStall(t *testing.T) {
	h := NewHealth()
	s := startServer(t, Config{Health: h, Registry: &telemetry.Registry{}})

	done := make(chan error, 1)
	go func() {
		done <- supervise.New(supervise.Config{
			Role:        "stuck",
			Stall:       30 * time.Millisecond,
			Probe:       func() int64 { return 0 }, // never moves
			MaxRestarts: 1,
			BackoffBase: time.Millisecond,
			Observer:    h,
		}).Run(context.Background(), func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		})
	}()

	waitForCode(t, s.URL()+"/readyz", http.StatusServiceUnavailable, "watchdog stall")
	err := <-done
	if !errors.Is(err, supervise.ErrStalled) && !errors.Is(err, supervise.ErrRestartBudget) {
		t.Fatalf("supervisor error = %v, want stall/budget", err)
	}
	waitForCode(t, s.URL()+"/healthz", http.StatusServiceUnavailable, "budget exhaustion")
}

// waitForCode polls a URL until it returns the wanted status.
func waitForCode(t *testing.T, url string, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _ := get(t, url)
		if code == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s never returned %d", what, url, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventsStream tails a writer-backed journal over HTTP and must see
// every event in order as NDJSON.
func TestEventsStream(t *testing.T) {
	jw := journal.New()
	s := startServer(t, Config{Journal: jw, Registry: &telemetry.Registry{}})
	for step := 0; step < 3; step++ {
		jw.Emit(journal.Event{Type: journal.TypeRender, Rank: 0, Step: step})
	}

	resp, err := http.Get(s.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for step := 0; step < 3; step++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d events: %v", step, sc.Err())
		}
		var ev journal.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", step, err)
		}
		if ev.Type != journal.TypeRender || ev.Step != step {
			t.Fatalf("event %d = %s step %d, want render step %d", step, ev.Type, ev.Step, step)
		}
	}

	// A late event reaches an already-connected subscriber.
	jw.Emit(journal.Event{Type: journal.TypeRunEnd, Rank: -1, Step: -1})
	if !sc.Scan() {
		t.Fatalf("stream ended before the late event: %v", sc.Err())
	}
	var ev journal.Event
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != journal.TypeRunEnd {
		t.Fatalf("late event = %s, want run_end", ev.Type)
	}
}

// TestEventsOverflow starts a subscriber after the run has emitted more
// events than its journal keeps: the stream must deliver the newest kept
// events in order, then one overflow event counting the events it never
// got, and that hole must be in the run journal too.
func TestEventsOverflow(t *testing.T) {
	jw := journal.New()
	s := startServer(t, Config{Journal: jw, Registry: &telemetry.Registry{}})
	const total = 10_000
	for step := 0; step < total; step++ {
		jw.Emit(journal.Event{Type: journal.TypeRender, Rank: 0, Step: step})
	}

	resp, err := http.Get(s.URL() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)

	// The kept newest events first, in order, ending at the last step...
	var steps []int
	var over journal.Event
	for over.Type == "" {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d events: %v", len(steps), sc.Err())
		}
		var ev journal.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == journal.TypeRender {
			steps = append(steps, ev.Step)
		} else {
			over = ev
		}
	}
	kept := len(steps)
	if kept == 0 || kept >= total {
		t.Fatalf("stream delivered %d of %d events before the overflow event, want the journal's kept tail", kept, total)
	}
	for i, step := range steps {
		if want := total - kept + i; step != want {
			t.Fatalf("kept event %d = step %d, want %d (not the newest, in order)", i, step, want)
		}
	}
	// ...then one overflow event counting the events not delivered.
	if over.Type != journal.TypeOverflow || over.Elements != total-kept {
		t.Fatalf("event after the kept tail = %+v, want type=overflow elements=%d", over, total-kept)
	}
	// The hole is part of the permanent record.
	found := false
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeOverflow && ev.Detail == over.Detail && ev.Elements == over.Elements {
			found = true
		}
	}
	if !found {
		t.Error("overflow event missing from the run journal")
	}
}

// TestEventsNoJournal checks the endpoint 404s rather than hangs when
// the server has no journal attached.
func TestEventsNoJournal(t *testing.T) {
	s := startServer(t, Config{Registry: &telemetry.Registry{}})
	if code, _ := get(t, s.URL()+"/events"); code != http.StatusNotFound {
		t.Fatalf("journal-less /events = %d, want 404", code)
	}
	if code, _ := get(t, s.URL()+"/trace"); code != http.StatusNotFound {
		t.Fatalf("journal-less /trace = %d, want 404", code)
	}
}

// TestTraceExport checks the catapult conversion: timed events become
// complete slices with non-negative relative timestamps, untimed events
// become instant marks, ranks map to pids.
func TestTraceExport(t *testing.T) {
	jw := journal.New()
	base := time.Now()
	jw.Emit(journal.Event{T: base, Type: journal.TypeRunStart, Rank: -1, Step: -1})
	jw.Emit(journal.Event{
		T: base.Add(10 * time.Millisecond), Type: journal.TypeRender, Phase: journal.PhaseRender,
		Rank: 0, Step: 3, DurNS: int64(4 * time.Millisecond), Bytes: 123,
	})

	s := startServer(t, Config{Journal: jw, Registry: &telemetry.Registry{}})
	code, body := get(t, s.URL()+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace = %d, want 200", code)
	}
	var tf TraceFile
	if err := json.Unmarshal(body, &tf); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(tf.TraceEvents) != 2 {
		t.Fatalf("trace has %d events, want 2", len(tf.TraceEvents))
	}
	instant, slice := tf.TraceEvents[0], tf.TraceEvents[1]
	if instant.Ph != "i" || instant.Pid != 0 {
		t.Errorf("run_start = ph=%q pid=%d, want instant mark on pid 0", instant.Ph, instant.Pid)
	}
	if slice.Ph != "X" || slice.Pid != 1 || slice.Name != journal.PhaseRender {
		t.Errorf("render = ph=%q pid=%d name=%q, want X slice on pid 1 named %s", slice.Ph, slice.Pid, slice.Name, journal.PhaseRender)
	}
	if slice.Dur != 4000 {
		t.Errorf("render dur = %v µs, want 4000", slice.Dur)
	}
	if instant.Ts < 0 || slice.Ts < 0 {
		t.Errorf("negative trace timestamps: instant=%v slice=%v", instant.Ts, slice.Ts)
	}
	if slice.Args["bytes"] != float64(123) {
		t.Errorf("slice args = %v, want bytes=123", slice.Args)
	}
}

// TestConcurrentScrape hammers every endpoint while metrics and the
// journal are being written — the race detector is the assertion.
func TestConcurrentScrape(t *testing.T) {
	reg := &telemetry.Registry{}
	jw := journal.New()
	h := NewHealth()
	s := startServer(t, Config{Role: "race", Journal: jw, Registry: reg, Health: h})

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(2)
	go func() {
		defer writers.Done()
		ctr := reg.Counter("race.steps")
		hist := reg.Histogram("race.latency")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctr.Inc()
			hist.Observe(int64(i))
			if i%256 == 0 {
				time.Sleep(time.Microsecond) // yield, or two spinning writers starve the scrapers
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			jw.Emit(journal.Event{Type: journal.TypeRender, Rank: 0, Step: i})
			h.RoleProgress("pair0", int64(i))
		}
	}()

	var scrapers sync.WaitGroup
	for w := 0; w < 4; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 25; i++ {
				code, body := get(t, s.URL()+"/metrics")
				if code != http.StatusOK {
					t.Errorf("scrape = %d", code)
					return
				}
				if _, err := ParseExposition(strings.NewReader(string(body))); err != nil {
					t.Errorf("mid-run scrape unparseable: %v", err)
					return
				}
				get(t, s.URL()+"/healthz")
				if i%10 == 0 {
					get(t, s.URL()+"/trace")
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writers.Wait()
}
