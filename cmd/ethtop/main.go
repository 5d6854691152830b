// Command ethtop is a terminal dashboard for live ETH runs: point it at
// one or more obs endpoints (processes started with `-obs addr`) and it
// polls /metrics and /healthz, derives rates from successive scrapes,
// and redraws a top-style view — step and image throughput, transport
// bandwidth, render latency quantiles, retry/skip/restart tallies, and
// per-role watchdog state.
//
// Usage:
//
//	ethtop 127.0.0.1:9464
//	ethtop -interval 1s host-a:9464 host-b:9464
//	ethtop -once 127.0.0.1:9464     # single validated scrape (CI)
//
// With -once it scrapes each endpoint exactly once, prints a plain
// snapshot, validates that /metrics parses as Prometheus text
// exposition, and exits non-zero if any endpoint is unreachable or
// malformed — which is how scripts/check.sh verifies the telemetry
// plane without external tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/ascr-ecx/eth/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethtop: ")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "scrape once, print a plain snapshot, validate, exit")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: ethtop [-interval 2s] [-once] host:port ...")
	}
	endpoints := make([]string, flag.NArg())
	for i, arg := range flag.Args() {
		endpoints[i] = normalize(arg)
	}
	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		os.Exit(runOnce(client, endpoints))
	}
	prev := make(map[string]sample, len(endpoints))
	for {
		var b strings.Builder
		b.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
		fmt.Fprintf(&b, "ethtop  %s  interval=%s  endpoints=%d\n\n",
			time.Now().Format("15:04:05"), interval, len(endpoints))
		writeHeader(&b)
		for _, ep := range endpoints {
			cur := scrape(client, ep)
			writeRow(&b, ep, cur, prev[ep])
			prev[ep] = cur
		}
		writeDetail(&b, client, endpoints, prev)
		os.Stdout.WriteString(b.String())
		time.Sleep(*interval)
	}
}

// normalize turns host:port into a base URL.
func normalize(arg string) string {
	if strings.HasPrefix(arg, "http://") || strings.HasPrefix(arg, "https://") {
		return strings.TrimSuffix(arg, "/")
	}
	return "http://" + arg
}

// sample is one endpoint poll.
type sample struct {
	t      time.Time
	exp    *obs.Exposition
	health obs.HealthStatus
	err    error
}

// scrape polls one endpoint's /metrics and /healthz.
func scrape(client *http.Client, base string) sample {
	s := sample{t: time.Now()}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		s.err = err
		return s
	}
	s.exp, s.err = obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if s.err != nil {
		return s
	}
	if resp, err = client.Get(base + "/healthz"); err == nil {
		json.NewDecoder(resp.Body).Decode(&s.health)
		resp.Body.Close()
	}
	return s
}

// value reads one sample value from the scrape (0 when absent).
func (s sample) value(name string) float64 {
	if s.exp == nil {
		return 0
	}
	v, _ := s.exp.Value(name)
	return v
}

// quantile reads a summary quantile in seconds.
func (s sample) quantile(name, q string) (float64, bool) {
	if s.exp == nil {
		return 0, false
	}
	for _, sm := range s.exp.Find(name) {
		if sm.Label("quantile") == q {
			return sm.Value, true
		}
	}
	return 0, false
}

// role reads the role label off the first sample.
func (s sample) role() string {
	if s.exp == nil || len(s.exp.Samples) == 0 {
		return "?"
	}
	if r := s.exp.Samples[0].Label("role"); r != "" {
		return r
	}
	return "?"
}

// rate computes a per-second counter rate between two samples.
func rate(cur, prev sample, name string) float64 {
	if prev.exp == nil || cur.exp == nil {
		return 0
	}
	dt := cur.t.Sub(prev.t).Seconds()
	if dt <= 0 {
		return 0
	}
	d := cur.value(name) - prev.value(name)
	if d < 0 {
		d = 0 // restarted process: counter reset
	}
	return d / dt
}

func writeHeader(b *strings.Builder) {
	fmt.Fprintf(b, "%-22s %-6s %-7s %9s %8s %8s %9s %9s %6s %5s %8s %5s\n",
		"ENDPOINT", "ROLE", "STATE", "STEPS", "STEP/S", "IMG/S", "TX MB/S", "RX MB/S",
		"RETRY", "SKIP", "RESTART", "SUBS")
}

func writeRow(b *strings.Builder, ep string, cur, prev sample) {
	short := strings.TrimPrefix(ep, "http://")
	if cur.err != nil {
		fmt.Fprintf(b, "%-22s %s\n", short, "DOWN: "+cur.err.Error())
		return
	}
	state := "ok"
	switch {
	case !cur.health.Healthy:
		state = "FAILED"
	case !cur.health.Ready:
		state = "STALLED"
	}
	fmt.Fprintf(b, "%-22s %-6s %-7s %9.0f %8.1f %8.1f %9.2f %9.2f %6.0f %5.0f %8.0f %5.0f\n",
		short, cur.role(), state,
		cur.value("eth_proxy_steps_total"),
		rate(cur, prev, "eth_proxy_steps_total"),
		rate(cur, prev, "eth_proxy_images_total"),
		rate(cur, prev, "eth_transport_bytes_sent_total")/1e6,
		rate(cur, prev, "eth_transport_bytes_recv_total")/1e6,
		cur.value("eth_coupling_retries_total"),
		cur.value("eth_coupling_steps_skipped_total"),
		cur.value("eth_supervise_restarts_total"),
		cur.value("eth_obs_subscribers"))
}

// writeDetail prints render, transport and hub-send latency quantiles and
// any role that is stalled or failed.
func writeDetail(b *strings.Builder, client *http.Client, endpoints []string, samples map[string]sample) {
	b.WriteString("\n")
	for _, ep := range endpoints {
		s := samples[ep]
		if s.err != nil {
			continue
		}
		short := strings.TrimPrefix(ep, "http://")
		var parts []string
		for _, fam := range []struct{ label, name string }{
			{"render", "eth_phase_render_seconds"},
			{"transport", "eth_phase_transport_seconds"},
			{"hub", "eth_hub_send_seconds"},
		} {
			p50, ok := s.quantile(fam.name, "0.5")
			if !ok {
				continue
			}
			p95, _ := s.quantile(fam.name, "0.95")
			p99, _ := s.quantile(fam.name, "0.99")
			parts = append(parts, fmt.Sprintf("%s p50=%s p95=%s p99=%s",
				fam.label, ms(p50), ms(p95), ms(p99)))
		}
		if len(parts) > 0 {
			fmt.Fprintf(b, "%-22s %s\n", short, strings.Join(parts, "   "))
		}
		for _, role := range s.health.Roles {
			if role.Stalled {
				fmt.Fprintf(b, "%-22s role %s STALLED for %s (restarts %d/%d, cursor %d)\n",
					short, role.Role, role.StalledFor, role.Restarts, role.Budget, role.Cursor)
			}
			if role.Error != "" {
				fmt.Fprintf(b, "%-22s role %s FAILED: %s\n", short, role.Role, role.Error)
			}
		}
	}
}

func ms(seconds float64) string {
	return fmt.Sprintf("%.1fms", seconds*1e3)
}

// runOnce scrapes every endpoint a single time, prints a plain
// snapshot, and returns the process exit code: 0 only if every
// endpoint served parseable exposition.
func runOnce(client *http.Client, endpoints []string) int {
	code := 0
	var b strings.Builder
	writeHeader(&b)
	for _, ep := range endpoints {
		cur := scrape(client, ep)
		writeRow(&b, ep, cur, sample{})
		if cur.err != nil {
			code = 1
			continue
		}
		families := make([]string, 0, len(cur.exp.Types))
		for fam := range cur.exp.Types {
			families = append(families, fam)
		}
		sort.Strings(families)
		fmt.Fprintf(&b, "%-22s exposition ok: %d samples, %d families\n",
			strings.TrimPrefix(ep, "http://"), len(cur.exp.Samples), len(families))
	}
	os.Stdout.WriteString(b.String())
	return code
}
