package coupling

// The chaos suite drives the degradation policy with seeded,
// deterministic fault schedules (internal/faults) and asserts exact
// recovery semantics: which steps were rendered, how many
// reconnect/skip decisions fired, what cause each decision recorded.
// Every scenario runs twice and must produce an identical signature —
// the ordered retry/skip/resume journal events plus the rendered step
// list — proving the whole failure path replays from its seed.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/faults"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/transport"
)

// chaosPair builds a single-rank pair whose proxies journal into jw, so
// viz-side resume events land next to the driver's retry/skip events.
// codec names the wire codec ("" = raw); temporal codecs exercise the
// keyframe resynchronization path on every reconnect.
func chaosPair(t *testing.T, steps int, codec string, jw *journal.Writer, pub proxy.FramePublisher) PairSpec {
	t.Helper()
	var datasets []data.Dataset
	for s := 0; s < steps; s++ {
		datasets = append(datasets, testCloud(400, int64(s)+1))
	}
	sim, err := proxy.NewSimProxy(proxy.SimConfig{Codec: codec, Journal: jw}, &proxy.MemSource{Data: datasets})
	if err != nil {
		t.Fatal(err)
	}
	viz, err := proxy.NewVizProxy(proxy.VizConfig{
		Width: 32, Height: 32, Algorithm: "points", ImagesPerStep: 1, Journal: jw,
		Publisher: pub,
	})
	if err != nil {
		t.Fatal(err)
	}
	return PairSpec{Sim: sim, Viz: viz}
}

// frameLog is a publisher that keeps a copy of every published frame,
// in publish order: one per rendered step, as Report.Viz.Results.
type frameLog struct{ frames []*fb.Frame }

func (l *frameLog) PublishFrame(_ int, f *fb.Frame) {
	c := fb.New(f.W, f.H)
	if err := c.CopyFrom(f); err != nil {
		panic(err)
	}
	l.frames = append(l.frames, c)
}

// fastBackoff keeps reconnect sleeps in the single-millisecond range so
// the suite stays fast; Jitter 0 removes the one timing knob the
// signature does not already pin down.
func fastBackoff() transport.Backoff {
	return transport.Backoff{
		Base: time.Millisecond, Max: 5 * time.Millisecond,
		Attempts: 4, Jitter: 0, LayoutWait: 5 * time.Second,
	}
}

type chaosScenario struct {
	name    string
	steps   int
	codec   string // wire codec; "" = raw
	rules   []faults.Rule
	retries int           // Policy.MaxRetries
	skips   int           // Policy.MaxSkips
	ioTO    time.Duration // Policy.IOTimeout

	wantErr      error // sentinel the run error must wrap; nil = success
	wantRendered []int // steps rendered, in order, each exactly once
	wantRetries  int
	wantSkipped  int
	wantCause    string // cause token of the first retry/skip event
	wantFired    int    // injections the schedule must report (-1 = any)
}

// chaosSignature flattens a run into the deterministic record two runs
// of the same seed must agree on. Only events emitted from the driver
// goroutine (retry/skip from the policy loop, resume from viz.Receive)
// participate: sim-side transfer events interleave nondeterministically
// by design.
func chaosSignature(jw *journal.Writer, rep Report, err error) []string {
	var sig []string
	for _, ev := range jw.Events() {
		switch ev.Type {
		case journal.TypeRetry, journal.TypeSkip, journal.TypeResume:
			sig = append(sig, fmt.Sprintf("%s step=%d %s", ev.Type, ev.Step, ev.Detail))
		}
	}
	for _, r := range rep.Viz.Results {
		sig = append(sig, fmt.Sprintf("render step=%d", r.Step))
	}
	sig = append(sig, fmt.Sprintf("retries=%d skipped=%d failed=%v", rep.Retries, rep.Skipped, err != nil))
	return sig
}

// runChaos executes one scenario once, asserts its recovery semantics,
// and returns the run's signature.
func runChaos(t *testing.T, sc chaosScenario) []string {
	t.Helper()
	jw := journal.New()
	pair := chaosPair(t, sc.steps, sc.codec, jw, nil)
	sched := faults.New(42, sc.rules...)
	pol := Policy{
		MaxRetries: sc.retries,
		MaxSkips:   sc.skips,
		IOTimeout:  sc.ioTO,
		Backoff:    fastBackoff(),
		Seed:       42,
		Faults:     sched,
	}
	layout := filepath.Join(t.TempDir(), "layout")
	rep, err := RunSocketPair(context.Background(), pair.Sim, pair.Viz, layout, 0, pol, jw)

	if sc.wantErr == nil {
		if err != nil {
			t.Fatalf("run failed: %v\nfired: %v", err, sched.Fired())
		}
	} else if !errors.Is(err, sc.wantErr) {
		t.Fatalf("err = %v, want wrapped %v", err, sc.wantErr)
	}
	var rendered []int
	for _, r := range rep.Viz.Results {
		rendered = append(rendered, r.Step)
	}
	if !reflect.DeepEqual(rendered, sc.wantRendered) {
		t.Errorf("rendered steps = %v, want %v", rendered, sc.wantRendered)
	}
	if rep.Retries != sc.wantRetries || rep.Skipped != sc.wantSkipped {
		t.Errorf("retries=%d skipped=%d, want %d/%d", rep.Retries, rep.Skipped, sc.wantRetries, sc.wantSkipped)
	}
	if sc.wantCause != "" {
		found := ""
		for _, ev := range jw.Events() {
			if ev.Type == journal.TypeRetry || ev.Type == journal.TypeSkip {
				found = ev.Detail
				break
			}
		}
		if !strings.Contains(found, "cause="+sc.wantCause) {
			t.Errorf("first decision detail %q lacks cause=%s", found, sc.wantCause)
		}
	}
	if sc.wantFired >= 0 && len(sched.Fired()) != sc.wantFired {
		t.Errorf("fired = %v, want %d injections", sched.Fired(), sc.wantFired)
	}
	return chaosSignature(jw, rep, err)
}

// chaosScenarios is the table: every entry is reproducible from seed 42
// and covers one distinct failure/recovery path. Corrupt positions are
// explicit (past the 18-byte v3 dataset header) so the failure class is
// pinned to a payload checksum mismatch.
var chaosScenarios = []chaosScenario{
	{
		// No faults: the policy machinery must be invisible on a clean link.
		name: "clean-baseline", steps: 3, retries: 2,
		wantRendered: []int{0, 1, 2}, wantFired: 0,
	},
	{
		// Corrupt the frame carrying step 1: CRC detects it, one
		// reconnect resumes at the unacked step, nothing rendered twice.
		name: "corrupt-frame", steps: 3, retries: 2,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Corrupt, Pos: 30}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "checksum", wantFired: 1,
	},
	{
		// Same flip on a compressed stream: the checksum verdict must win
		// over the flate decode error it also causes.
		name: "corrupt-compressed", steps: 3, codec: "flate", retries: 2,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Corrupt, Pos: 30}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "checksum", wantFired: 1,
	},
	{
		// The same flip on a delta stream hits the frame carrying step 1 —
		// a true delta frame, since step 0 opened the connection as a
		// keyframe. The reconnect builds fresh Conns, so the resumed step
		// arrives as a new keyframe and the temporal state resynchronizes
		// without any out-of-band signal.
		name: "corrupt-delta", steps: 3, codec: "delta", retries: 2,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Corrupt, Pos: 30}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "checksum", wantFired: 1,
	},
	{
		// And on the composed codec: a corrupted delta+flate residual must
		// surface as the checksum verdict (never a mis-inflated dataset)
		// and recover through the flate-encoded keyframe.
		name: "corrupt-delta-flate", steps: 3, codec: "delta+flate", retries: 2,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Corrupt, Pos: 30}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "checksum", wantFired: 1,
	},
	{
		// Kill the socket mid-delta-stream: recovery must come from the
		// keyframe path alone (the old reference state dies with the
		// connection on both sides).
		name: "reset-mid-delta", steps: 3, codec: "delta", retries: 2,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Reset}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "injected", wantFired: 1,
	},
	{
		// Kill the connection mid-dataset: half of step 1's frame is
		// written, then the socket dies under the writer.
		name: "reset-mid-dataset", steps: 3, retries: 2,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Reset}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "injected", wantFired: 1,
	},
	{
		// A short write without a close: the sender sees the injected
		// error, the receiver a truncated frame.
		name: "partial-write", steps: 3, retries: 2,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Partial}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "injected", wantFired: 1,
	},
	{
		// The viz rank's ack for step 1 (its third write, after the field
		// request and ack 0) vanishes. The sim side times out,
		// reconnects, and re-sends step 1 — which viz already rendered, so
		// it must re-ack without rendering (idempotent resume, not a
		// duplicate frame).
		name: "drop-ack", steps: 3, retries: 2, ioTO: 250 * time.Millisecond,
		rules:        []faults.Rule{{Side: faults.SideViz, Conn: 0, Op: faults.OpWrite, Nth: 2, Action: faults.Drop}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "timeout", wantFired: 1,
	},
	{
		// Stall the pair past the deadline: the sim side's first ack read
		// sleeps longer than IOTimeout, so the deadline fires with step 0
		// unacked; after reconnect viz re-acks the duplicate step 0.
		name: "stall-past-deadline", steps: 3, retries: 2, ioTO: 100 * time.Millisecond,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: 0, Op: faults.OpRead, Nth: 0, Action: faults.Delay, Delay: 300 * time.Millisecond}},
		wantRendered: []int{0, 1, 2}, wantRetries: 1, wantCause: "timeout", wantFired: 1,
	},
	{
		// Flaky dial during pairing: the first two connect attempts are
		// refused; DialBackoff absorbs them without spending the policy's
		// retry budget.
		name: "flaky-dial", steps: 2, retries: 1,
		rules: []faults.Rule{
			{Side: faults.SideViz, Conn: faults.Any, Op: faults.OpDial, Nth: 0, Action: faults.Refuse},
			{Side: faults.SideViz, Conn: faults.Any, Op: faults.OpDial, Nth: 1, Action: faults.Refuse},
		},
		wantRendered: []int{0, 1}, wantRetries: 0, wantFired: 2,
	},
	{
		// Step 1's frame is corrupted on the first connection and on both
		// retry connections: the budget exhausts and the skip policy
		// abandons exactly that step; the run still completes and the gap
		// is sanctioned, journaled, and visible in the render list.
		name: "skip-poisoned-step", steps: 3, retries: 2, skips: 1,
		rules: []faults.Rule{
			{Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Corrupt, Pos: 30},
			{Side: faults.SideSim, Conn: 1, Op: faults.OpWrite, Nth: 0, Action: faults.Corrupt, Pos: 30},
			{Side: faults.SideSim, Conn: 2, Op: faults.OpWrite, Nth: 0, Action: faults.Corrupt, Pos: 30},
		},
		wantRendered: []int{0, 2}, wantRetries: 2, wantSkipped: 1, wantCause: "checksum", wantFired: 3,
	},
	{
		// Every dataset frame is corrupted and skipping is forbidden: the
		// pair must give up with the typed checksum error after the retry
		// budget, not hang or succeed.
		name: "exhaust-then-fail", steps: 2, retries: 1,
		rules:        []faults.Rule{{Side: faults.SideSim, Conn: faults.Any, Op: faults.OpWrite, Nth: faults.Any, Action: faults.Corrupt, Pos: 30}},
		wantErr:      transport.ErrChecksum,
		wantRendered: nil, wantRetries: 1, wantCause: "checksum", wantFired: 2,
	},
}

// TestChaosScenarios runs every scenario twice and demands identical
// signatures — the reproducibility contract: seed + schedule fully
// determine the failure and recovery sequence.
func TestChaosScenarios(t *testing.T) {
	for _, sc := range chaosScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			first := runChaos(t, sc)
			second := runChaos(t, sc)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("two runs of the same seed diverged:\nrun 1: %v\nrun 2: %v", first, second)
			}
		})
	}
}

// TestChaosDuplicateNotRerendered pins the idempotent-resume invariant
// directly: in the drop-ack scenario the re-sent step appears in the
// journal as a duplicate re-ack, and the render list holds each step
// exactly once.
func TestChaosDuplicateNotRerendered(t *testing.T) {
	jw := journal.New()
	pair := chaosPair(t, 3, "", jw, nil)
	pol := Policy{
		MaxRetries: 2, IOTimeout: 250 * time.Millisecond,
		Backoff: fastBackoff(), Seed: 7,
		// Write 0 is the field request, write 1 ack 0, write 2 ack 1.
		Faults: faults.New(7, faults.Rule{
			Side: faults.SideViz, Conn: 0, Op: faults.OpWrite, Nth: 2, Action: faults.Drop,
		}),
	}
	layout := filepath.Join(t.TempDir(), "layout")
	rep, err := RunSocketPair(context.Background(), pair.Sim, pair.Viz, layout, 0, pol, jw)
	if err != nil {
		t.Fatal(err)
	}
	dups := 0
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeResume && strings.Contains(ev.Detail, "duplicate step 1") {
			dups++
		}
	}
	if dups != 1 {
		t.Errorf("duplicate re-ack events = %d, want 1", dups)
	}
	seen := map[int]int{}
	for _, r := range rep.Viz.Results {
		seen[r.Step]++
	}
	for step, n := range seen {
		if n != 1 {
			t.Errorf("step %d rendered %d times", step, n)
		}
	}
	if len(seen) != 3 {
		t.Errorf("rendered %d distinct steps, want 3", len(seen))
	}
}

// TestChaosCodecRecoveryBitExact is the provable-resync gate for the
// temporal codecs: the same corruption-and-reconnect schedule runs under
// raw, delta, and delta+flate, and every rendered step's final frame
// must be byte-identical to the raw run's — colors and depths both. XOR
// deltas are length-preserving, so the raw and delta runs even see the
// fault at the same byte of the same write; delta+flate reshapes the
// wire but must still converge to the identical images after its
// keyframe resync. Render lists and retry/skip counts must agree too.
func TestChaosCodecRecoveryBitExact(t *testing.T) {
	run := func(codec string) (Report, []*fb.Frame) {
		t.Helper()
		jw := journal.New()
		rec := &frameLog{}
		pair := chaosPair(t, 4, codec, jw, rec)
		pol := Policy{
			MaxRetries: 2,
			Backoff:    fastBackoff(),
			Seed:       42,
			Faults: faults.New(42, faults.Rule{
				Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 2, Action: faults.Corrupt, Pos: 30,
			}),
		}
		layout := filepath.Join(t.TempDir(), "layout")
		rep, err := RunSocketPair(context.Background(), pair.Sim, pair.Viz, layout, 0, pol, jw)
		if err != nil {
			t.Fatalf("%s run failed: %v", codec, err)
		}
		if len(rec.frames) != len(rep.Viz.Results) {
			t.Fatalf("%s: %d frames published for %d rendered steps", codec, len(rec.frames), len(rep.Viz.Results))
		}
		return rep, rec.frames
	}
	base, baseFrames := run("")
	if base.Retries != 1 {
		t.Fatalf("baseline retries = %d, want 1 (schedule did not fire)", base.Retries)
	}
	for _, codec := range []string{"delta", "delta+flate"} {
		rep, frames := run(codec)
		if rep.Retries != base.Retries || rep.Skipped != base.Skipped {
			t.Errorf("%s: retries=%d skipped=%d, raw run had %d/%d",
				codec, rep.Retries, rep.Skipped, base.Retries, base.Skipped)
		}
		if len(rep.Viz.Results) != len(base.Viz.Results) {
			t.Fatalf("%s rendered %d steps, raw rendered %d", codec, len(rep.Viz.Results), len(base.Viz.Results))
		}
		for i, want := range base.Viz.Results {
			got := rep.Viz.Results[i]
			if got.Step != want.Step {
				t.Errorf("%s result %d: step %d, raw step %d", codec, i, got.Step, want.Step)
				continue
			}
			if !reflect.DeepEqual(frames[i].Color, baseFrames[i].Color) {
				t.Errorf("%s step %d: colors differ from raw run", codec, got.Step)
			}
			if !reflect.DeepEqual(frames[i].Depth, baseFrames[i].Depth) {
				t.Errorf("%s step %d: depths differ from raw run", codec, got.Step)
			}
		}
	}
}

// TestChaosMultiPairFlaky proves one flaky pair no longer poisons a
// sweep: both pairs of a two-rank socket run see a mid-stream reset
// (per-rank schedule clones) and both recover independently.
func TestChaosMultiPairFlaky(t *testing.T) {
	pairs := []PairSpec{
		makePair(t, 2, 0, 2),
		makePair(t, 2, 1, 2),
	}
	pol := Policy{
		MaxRetries: 2,
		Backoff:    fastBackoff(),
		Seed:       11,
		Faults: faults.New(11, faults.Rule{
			Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 1, Action: faults.Reset,
		}),
	}
	jw := journal.New()
	layout := filepath.Join(t.TempDir(), "layout")
	reports, err := RunPairsSupervised(context.Background(), pairs, Socket, layout, pol, nil, jw)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, r := range reports {
		if r.Retries != 1 {
			t.Errorf("pair %d retries = %d, want 1", i, r.Retries)
		}
		if len(r.Viz.Results) != 2 {
			t.Errorf("pair %d rendered %d steps, want 2", i, len(r.Viz.Results))
		}
		total += r.Viz.Results[0].Elements
	}
	if total != 500 {
		t.Errorf("ranks processed %d elements in step 0, want 500", total)
	}
	if n := journal.CountByType(jw.Events())[journal.TypeRetry]; n != 2 {
		t.Errorf("retry events = %d, want 2 (one per pair)", n)
	}
}
