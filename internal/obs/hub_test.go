package obs

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/transport"
)

// TestMetricsExposeHubGauges proves the broadcast hub's per-subscriber
// gauges travel the whole plane: hub registers them in the default
// telemetry registry, a subscriber connects over a real socket, and the
// /metrics exposition shows the slot's queue depth, drop count, and
// step lag alongside the hub aggregates — the signals an operator needs
// to spot a slow viewer before the overflow journal fills.
func TestMetricsExposeHubGauges(t *testing.T) {
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

	f := fb.New(8, 6)
	h.PublishFrame(0, f)
	if typ, _, _, err := c.Recv(); err != nil || typ != transport.MsgDataset {
		t.Fatalf("Recv = type %d, %v; want a dataset frame", typ, err)
	}

	// Default registry: the hub's gauges must appear without any wiring
	// beyond running a hub and an obs server in the same process.
	s := startServer(t, Config{Role: "viz", Run: "hub-gauges"})
	_, body := get(t, s.URL()+"/metrics")
	text := string(body)
	for _, metric := range []string{
		"eth_hub_subscribers",
		"eth_hub_frames_published_total",
		"eth_hub_frames_encoded_total",
		"eth_hub_sub0_queue_depth",
		"eth_hub_sub0_dropped_frames",
		"eth_hub_sub0_lag_steps",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %s\n%s", metric, text)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 2500; i++ {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
