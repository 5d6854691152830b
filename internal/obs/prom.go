package obs

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ascr-ecx/eth/internal/telemetry"
)

// Prometheus text exposition (version 0.0.4) rendered from a
// telemetry.Registry. The mapping:
//
//   - Counter  c            -> eth_<name>_total            counter
//   - Gauge    g            -> eth_<name>                  gauge
//   - Histogram h           -> eth_<name>_seconds{quantile} summary
//     (p50/p95/p99 in seconds), _seconds_sum, _seconds_count
//
// Every histogram holds durations in nanoseconds, so each is one summary
// in seconds. Metric names are sanitized ('.', '/', '-' and anything
// else outside [a-zA-Z0-9_] become '_'); every sample carries the
// server's role and run labels.

// expoScratch is the per-server reused exposition state: one scrape at
// a time renders into buf from atomic metric reads, so scraping holds
// no registry locks while formatting and allocates only when the
// registry grew since the last scrape.
type expoScratch struct {
	buf      []byte
	counters []*telemetry.Counter
	gauges   []*telemetry.Gauge
	hists    []*telemetry.Histogram
}

// handleMetrics serves /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ctrScrapes.Inc()
	defer histScrape.Since(time.Now())

	s.mu.Lock()
	out := s.renderExpositionLocked(s.run)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(out)
	s.mu.Unlock()
}

// renderExpositionLocked renders the full exposition into the reused
// scratch buffer and returns it. Caller holds s.mu (the scratch lock);
// the returned slice is valid until the next render.
func (s *Server) renderExpositionLocked(run string) []byte {
	defer histExposition.Since(time.Now())
	e := &s.expo
	reg := s.cfg.registry()

	e.counters = e.counters[:0]
	reg.EachCounter(func(c *telemetry.Counter) { e.counters = append(e.counters, c) })
	sort.Slice(e.counters, func(i, j int) bool { return e.counters[i].Name() < e.counters[j].Name() })
	e.gauges = e.gauges[:0]
	reg.EachGauge(func(g *telemetry.Gauge) { e.gauges = append(e.gauges, g) })
	sort.Slice(e.gauges, func(i, j int) bool { return e.gauges[i].Name() < e.gauges[j].Name() })
	e.hists = e.hists[:0]
	reg.EachHistogram(func(h *telemetry.Histogram) { e.hists = append(e.hists, h) })
	sort.Slice(e.hists, func(i, j int) bool { return e.hists[i].Name() < e.hists[j].Name() })

	role := s.cfg.role()
	b := e.buf[:0]

	for _, c := range e.counters {
		name := promName(c.Name())
		if !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
		b = appendHeader(b, name, "counter")
		b = append(b, name...)
		b = appendLabels(b, role, run, "")
		b = append(b, ' ')
		b = strconv.AppendInt(b, c.Value(), 10)
		b = append(b, '\n')
	}
	for _, g := range e.gauges {
		name := promName(g.Name())
		b = appendHeader(b, name, "gauge")
		b = append(b, name...)
		b = appendLabels(b, role, run, "")
		b = append(b, ' ')
		b = strconv.AppendInt(b, g.Value(), 10)
		b = append(b, '\n')
	}
	for _, h := range e.hists {
		b = appendSummary(b, h, role, run)
	}
	e.buf = b
	return b
}

// appendSummary renders one duration histogram as a Prometheus summary
// in seconds: the p50/p95/p99 quantile series plus _sum and _count.
func appendSummary(b []byte, h *telemetry.Histogram, role, run string) []byte {
	name := promName(h.Name()) + "_seconds"
	b = appendHeader(b, name, "summary")
	for _, q := range [...]struct {
		label string
		q     float64
	}{{"0.5", 0.50}, {"0.95", 0.95}, {"0.99", 0.99}} {
		b = append(b, name...)
		b = appendLabels(b, role, run, q.label)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, time.Duration(h.Quantile(q.q)).Seconds(), 'g', -1, 64)
		b = append(b, '\n')
	}
	b = append(b, name...)
	b = append(b, "_sum"...)
	b = appendLabels(b, role, run, "")
	b = append(b, ' ')
	b = strconv.AppendFloat(b, time.Duration(h.Sum()).Seconds(), 'g', -1, 64)
	b = append(b, '\n')
	b = append(b, name...)
	b = append(b, "_count"...)
	b = appendLabels(b, role, run, "")
	b = append(b, ' ')
	b = strconv.AppendInt(b, h.Count(), 10)
	b = append(b, '\n')
	return b
}

// appendHeader writes the # TYPE line for a metric family.
func appendHeader(b []byte, name, kind string) []byte {
	b = append(b, "# TYPE "...)
	b = append(b, name...)
	b = append(b, ' ')
	b = append(b, kind...)
	b = append(b, '\n')
	return b
}

// promName sanitizes a telemetry metric name into the Prometheus
// alphabet with the eth_ namespace prefix.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name) + 4)
	sb.WriteString("eth_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// appendLabels is the one label writer: the constant role/run set,
// e.g. `{role="viz",run="trace.jsonl"}`, plus a quantile label when
// quantile is set.
func appendLabels(b []byte, role, run, quantile string) []byte {
	b = append(b, `{role="`...)
	b = append(b, escapeLabel(role)...)
	b = append(b, '"')
	if run != "" {
		b = append(b, `,run="`...)
		b = append(b, escapeLabel(run)...)
		b = append(b, '"')
	}
	if quantile != "" {
		b = append(b, `,quantile="`...)
		b = append(b, quantile...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
