package obs

import (
	"context"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/transport"
)

// metricNameRe is the telemetry naming contract: dotted snake_case. It
// makes promName a plain '.'→'_' rewrite, so no two registry names can
// collapse onto one Prometheus family.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// TestMetricNamesByValue checks the naming contract on the names a run
// actually registers, not on the source that builds them: every render
// algorithm, the halos and stats operations, a hub with a live
// subscriber and a unified pair (whose step span nests) run first, then
// every counter, gauge, histogram and span in the default registry must
// match the contract and map to its Prometheus family without
// sanitizing.
func TestMetricNamesByValue(t *testing.T) {
	cp := cosmo.DefaultParams()
	cp.Particles = 2000
	cloud, err := cosmo.Generate(cp)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := blast.Generate(blast.Params{NX: 12, NY: 10, NZ: 8, BoxSize: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[data.Kind]data.Dataset{
		data.KindPointCloud:       cloud,
		data.KindStructuredGrid:   grid,
		data.KindUnstructuredGrid: data.Tetrahedralize(grid),
	}

	h, err := hub.New(hub.Config{Addr: "127.0.0.1:0", Journal: journal.New()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- h.Serve(ctx) }()
	// LIFO: close the hub first, then reap the accept loop.
	t.Cleanup(func() { <-serveDone })
	t.Cleanup(func() { h.Close(); cancel() })
	c, err := hub.DialSubscriber(h.Addr(), "viewer", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "subscriber to register", func() bool { return h.Subscribers() == 1 })

	for step, alg := range render.Algorithms() {
		r, err := render.New(alg)
		if err != nil {
			t.Fatal(err)
		}
		ops := []proxy.Operation{&proxy.StatsOperation{}}
		if r.Kind() == data.KindPointCloud {
			ops = append(ops, &proxy.HaloOperation{})
		}
		v, err := proxy.NewVizProxy(proxy.VizConfig{
			Width: 32, Height: 32, Algorithm: alg, Operations: ops, Publisher: h,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.RenderStep(step, inputs[r.Kind()]); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	if typ, _, _, err := c.Recv(); err != nil || typ != transport.MsgDataset {
		t.Fatalf("Recv = type %d, %v; want a dataset frame", typ, err)
	}
	sim, err := proxy.NewSimProxy(proxy.SimConfig{Ranks: 1}, &proxy.MemSource{Data: []data.Dataset{cloud}})
	if err != nil {
		t.Fatal(err)
	}
	viz, err := proxy.NewVizProxy(proxy.VizConfig{Width: 32, Height: 32, Algorithm: "points"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coupling.RunUnified(context.Background(), sim, viz); err != nil {
		t.Fatal(err)
	}

	var names []string
	telemetry.Default.EachCounter(func(m *telemetry.Counter) { names = append(names, m.Name()) })
	telemetry.Default.EachGauge(func(m *telemetry.Gauge) { names = append(names, m.Name()) })
	telemetry.Default.EachHistogram(func(m *telemetry.Histogram) { names = append(names, m.Name()) })
	telemetry.Default.EachSpan(func(m *telemetry.SpanMetric) { names = append(names, m.Name()) })
	for _, want := range []string{"viz.render.vtk_iso", "viz.op.halos", "viz.op.stats", "hub.sub0.queue_depth", "coupling.unified.step"} {
		if !slices.Contains(names, want) {
			t.Errorf("registry lacks %q after the runs", want)
		}
	}
	for _, n := range names {
		if !metricNameRe.MatchString(n) {
			t.Errorf("metric %q is not dotted snake_case", n)
		}
		if got, want := promName(n), "eth_"+strings.ReplaceAll(n, ".", "_"); got != want {
			t.Errorf("promName(%q) = %q, want %q", n, got, want)
		}
	}
}
