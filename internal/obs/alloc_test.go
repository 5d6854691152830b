package obs

import (
	"net"
	"net/http"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/compositing"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
)

// TestHotPathAllocsWithObs re-asserts the PR 3 zero-allocation gates —
// serial draw, depth merge, raw transport round trip — with an obs
// server attached to the process and scraped heavily around each
// measurement. AllocsPerRun counts mallocs process-wide, so the scrape
// bursts run between measurements rather than concurrently (a live
// scraper's own HTTP handling allocates by design, on the scraper's
// goroutine, not the hot path's); what the gate proves is that wiring
// the telemetry plane into the process — registry walks, journal, the
// server itself — adds nothing to the instrumented loops. The
// does-scraping-perturb-the-run question is answered by the chaos test
// next door, which scrapes continuously and demands byte-identical
// frames.
func TestHotPathAllocsWithObs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}

	jw := journal.New()
	s := startServer(t, Config{Role: "alloc", Journal: jw, Registry: telemetry.Default})

	// scrape exercises every read endpoint so the exposition scratch and
	// HTTP machinery are warm and demonstrably live around each gate.
	client := &http.Client{Timeout: 5 * time.Second}
	scrape := func() {
		t.Helper()
		for _, ep := range []string{"/metrics", "/healthz", "/readyz", "/trace"} {
			resp, err := client.Get(s.URL() + ep)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
		}
	}
	before := telemetry.Default.Counter("obs.scrapes").Value()
	for i := 0; i < 8; i++ {
		scrape()
	}
	if got := telemetry.Default.Counter("obs.scrapes").Value() - before; got < 8 {
		t.Fatalf("scrape counter advanced %d, want >= 8 (obs server not live)", got)
	}

	t.Run("serial-draw", func(t *testing.T) {
		defer scrape()
		frame := fb.New(128, 128)
		verts := make([]raster.Vertex, 0, 3*200)
		tris := make([][3]int32, 200)
		for i := range tris {
			x := float64(8 + (i*13)%100)
			y := float64(8 + (i*7)%100)
			verts = append(verts,
				raster.Vertex{X: x, Y: y, Depth: 1 + float64(i)*0.01, Color: vec.New(1, 0.5, 0.2)},
				raster.Vertex{X: x + 10, Y: y + 2, Depth: 1.1, Color: vec.New(0.2, 0.5, 1)},
				raster.Vertex{X: x + 4, Y: y + 9, Depth: 1.2, Color: vec.New(0.5, 1, 0.2)},
			)
			tris[i] = [3]int32{int32(3 * i), int32(3*i + 1), int32(3*i + 2)}
		}
		var bins raster.Bins
		redraw := func() {
			frame.Clear(vec.V3{})
			bins.DrawTriangles(frame, verts, tris, 1)
		}
		redraw()
		if allocs := testing.AllocsPerRun(20, redraw); allocs > 0 {
			t.Errorf("serial draw allocates %.1f/op with obs attached, want 0", allocs)
		}
	})

	t.Run("merge-into", func(t *testing.T) {
		defer scrape()
		dst := fb.New(64, 64)
		src := fb.New(64, 64)
		for i := range src.Depth {
			src.Depth[i] = float64(i%7) + 0.5
			src.Color[i] = vec.New(0.1, 0.2, 0.3)
		}
		frames := []*fb.Frame{dst, src}
		merge := func() {
			if _, _, err := compositing.Composite(frames, compositing.DirectSend); err != nil {
				t.Fatal(err)
			}
		}
		merge()
		if allocs := testing.AllocsPerRun(50, merge); allocs > 0 {
			t.Errorf("merge allocates %.1f/op with obs attached, want 0", allocs)
		}
	})

	t.Run("transport-round-trip", func(t *testing.T) {
		defer scrape()
		cloud := data.NewPointCloud(10_000)
		for i := 0; i < cloud.Count(); i++ {
			cloud.IDs[i] = int64(i)
			cloud.X[i] = float32(i)
			cloud.Y[i] = float32(i) * 0.5
			cloud.Z[i] = float32(i) * 0.25
		}
		cloud.SpeedField()

		cl, sr := net.Pipe()
		send, recv := transport.NewConn(cl), transport.NewConn(sr)
		defer send.Close()
		defer recv.Close()
		recv.SetDatasetReuse(true)

		errc := make(chan error, 1)
		go func() {
			for {
				typ, _, _, err := recv.Recv()
				if err != nil {
					errc <- err
					return
				}
				if typ == transport.MsgDone {
					errc <- nil
					return
				}
				if err := recv.SendAck(0); err != nil {
					errc <- err
					return
				}
			}
		}()
		roundTrip := func() {
			if err := send.SendDataset(cloud); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := send.Recv(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			roundTrip() // warm payload buffer, codecs, reused dataset
		}
		if allocs := testing.AllocsPerRun(50, roundTrip); allocs > 0 {
			t.Errorf("round trip allocates %.1f/op with obs attached, want 0", allocs)
		}
		if err := send.SendDone(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	})
}
