package obs

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/faults"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
)

// The observability plane must be a pure observer: attaching an obs
// server to a run — scraping /metrics in a loop, holding an /events
// subscription open — may not change a single pixel or recovery
// decision. This suite runs a seeded chaos scenario bare and then
// observed, and demands byte-identical frames and an identical
// retry/skip/render record.

func chaosCloud(n int, seed int64) *data.PointCloud {
	rng := rand.New(rand.NewSource(seed))
	p := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(i)
		p.SetPos(i, vec.New(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10))
		p.SetVel(i, vec.New(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()))
	}
	p.SpeedField()
	return p
}

// frameHasher is a publisher that digests each rendered step's final
// frame as it is published, bit-exact over color and depth.
type frameHasher struct{ sums []uint64 }

func (fh *frameHasher) PublishFrame(_ int, f *fb.Frame) {
	var buf [8]byte
	h := fnv.New64a()
	for _, c := range f.Color {
		for _, v := range [3]float64{c.X, c.Y, c.Z} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for _, d := range f.Depth {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d))
		h.Write(buf[:])
	}
	fh.sums = append(fh.sums, h.Sum64())
}

// hashFrames pairs each rendered step with its published frame's digest.
func hashFrames(t *testing.T, rep coupling.Report, fh *frameHasher) []string {
	t.Helper()
	if len(fh.sums) != len(rep.Viz.Results) {
		t.Fatalf("%d frames published for %d rendered steps", len(fh.sums), len(rep.Viz.Results))
	}
	var out []string
	for i, r := range rep.Viz.Results {
		out = append(out, fmt.Sprintf("step=%d elements=%d frame=%016x", r.Step, r.Elements, fh.sums[i]))
	}
	return out
}

// runObservedChaos executes the corrupt-frame chaos scenario (seed 42,
// step 1's frame corrupted, one reconnect) and returns the per-step
// frame digests plus the recovery record. With observe set, an obs
// server is attached to the run's journal and scraped continuously
// while the run executes.
func runObservedChaos(t *testing.T, observe bool) []string {
	t.Helper()
	jw := journal.New()
	var datasets []data.Dataset
	for s := 0; s < 3; s++ {
		datasets = append(datasets, chaosCloud(400, int64(s)+1))
	}
	sim, err := proxy.NewSimProxy(proxy.SimConfig{Journal: jw}, &proxy.MemSource{Data: datasets})
	if err != nil {
		t.Fatal(err)
	}
	fh := &frameHasher{}
	viz, err := proxy.NewVizProxy(proxy.VizConfig{
		Width: 32, Height: 32, Algorithm: "points", ImagesPerStep: 1, Journal: jw,
		Publisher: fh,
	})
	if err != nil {
		t.Fatal(err)
	}

	if observe {
		s := startServer(t, Config{Role: "chaos", Journal: jw})
		stop := make(chan struct{})
		scraperDone := make(chan struct{})
		// Continuous scraper plus a live /events subscriber for the whole
		// run — the heaviest observation load the plane supports.
		go func() {
			defer close(scraperDone)
			client := &http.Client{Timeout: 5 * time.Second}
			resp, err := client.Get(s.URL() + "/events")
			if err == nil {
				defer resp.Body.Close()
				go func() {
					sc := bufio.NewScanner(resp.Body)
					for sc.Scan() {
					}
				}()
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if r, err := client.Get(s.URL() + "/metrics"); err == nil {
					r.Body.Close()
				}
				if r, err := client.Get(s.URL() + "/healthz"); err == nil {
					r.Body.Close()
				}
			}
		}()
		defer func() { close(stop); <-scraperDone }()
	}

	pol := coupling.Policy{
		MaxRetries: 2,
		Backoff: transport.Backoff{
			Base: time.Millisecond, Max: 5 * time.Millisecond,
			Attempts: 4, Jitter: 0, LayoutWait: 5 * time.Second,
		},
		Seed: 42,
		Faults: faults.New(42, faults.Rule{
			Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1,
			Action: faults.Corrupt, Pos: 30,
		}),
	}
	layout := filepath.Join(t.TempDir(), "layout")
	rep, err := coupling.RunSocketPair(context.Background(), sim, viz, layout, 0, pol, jw)
	if err != nil {
		t.Fatalf("chaos run failed (observe=%v): %v", observe, err)
	}

	sig := hashFrames(t, rep, fh)
	for _, ev := range jw.Events() {
		switch ev.Type {
		case journal.TypeRetry, journal.TypeSkip, journal.TypeResume:
			sig = append(sig, fmt.Sprintf("%s step=%d %s", ev.Type, ev.Step, ev.Detail))
		}
	}
	sig = append(sig, fmt.Sprintf("retries=%d skipped=%d", rep.Retries, rep.Skipped))
	return sig
}

// TestChaosUnperturbedByObs is the observer-effect gate: the observed
// run must produce exactly the frames and recovery record of the bare
// run.
func TestChaosUnperturbedByObs(t *testing.T) {
	bare := runObservedChaos(t, false)
	observed := runObservedChaos(t, true)
	if !reflect.DeepEqual(bare, observed) {
		t.Errorf("observation changed the run:\nbare:     %v\nobserved: %v", bare, observed)
	}
	if len(bare) == 0 {
		t.Fatal("empty run signature")
	}
}
