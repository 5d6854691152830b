//go:build unix

package supervise_test

// Process-level chaos, subprocess half: a REAL visualization-proxy
// subprocess is SIGKILLed mid-run (it kills itself at a deterministic
// step, modeling kill -9 from outside), the supervisor restarts it
// under budget, the new incarnation resumes after the last step its
// journal checkpoints, and the run completes with the same artifacts as an
// undisturbed run. The child is this very test binary re-executed with
// ETH_HELPER_VIZ=1 — the standard helper-process pattern, so no extra
// binaries are built.
//
// Artifacts (journals, frames) are written under
// ETH_CHAOS_DIR when set — CI points it at a temp dir it uploads on
// failure — and under t.TempDir() otherwise.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
)

const helperEnv = "ETH_HELPER_VIZ"

// TestHelperVizProcess is not a test: it is the child process body,
// entered only when the parent re-executes the test binary with
// ETH_HELPER_VIZ=1. It runs a real visualization proxy against the
// parent's listener and exits through os.Exit, never returning to the
// test framework.
func TestHelperVizProcess(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		t.Skip("helper process body; skipped in normal runs")
	}
	os.Exit(helperVizMain())
}

// killAtOp SIGKILLs the process mid-step — after the step's images
// rendered but before its checkpoint event — iff armed. This is the
// deterministic stand-in for an operator's kill -9.
type killAtOp struct {
	step  int
	armed bool
}

func (o *killAtOp) Name() string { return "kill-at" }
func (o *killAtOp) Apply(ctx proxy.OpContext, ds data.Dataset) (proxy.OpResult, error) {
	if o.armed && ctx.Step == o.step {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: SIGKILL is not deliverable to a handler
	}
	return proxy.OpResult{Op: o.Name(), Summary: "ok"}, nil
}

// helperVizMain is the child: open (or resume) the journal, start at
// its step cursor, dial the parent through the layout file, receive and
// render until done. Exit 0 on completion, 1 on error.
func helperVizMain() int {
	jw, events, err := journal.Reopen(os.Getenv("ETH_JOURNAL"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer jw.Close()
	start := journal.Cursor(events, 0)
	// Arm the self-kill only on a first incarnation (nothing checkpointed
	// yet): the restarted child must survive the same step it died on.
	armed := os.Getenv("ETH_KILL_STEP") != "" && start == 0
	killStep := 1
	viz, err := proxy.NewVizProxy(proxy.VizConfig{
		Width: 32, Height: 32, Algorithm: "points", ImagesPerStep: 1,
		OutDir:     os.Getenv("ETH_OUT"),
		Start:      start,
		Journal:    jw,
		Operations: []proxy.Operation{&killAtOp{step: killStep, armed: armed}},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := viz.EnsureOutDir(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	conn, err := transport.DialBackoff(os.Getenv("ETH_LAYOUT"), 0, transport.Backoff{
		Base: 5 * time.Millisecond, Max: 50 * time.Millisecond,
		Attempts: 20, LayoutWait: 10 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer conn.Close()
	if err := viz.Receive(conn); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	jw.Sync()
	return 0
}

// procCloud builds the deterministic dataset stream both runs share.
func procCloud(n int, seed int64) *data.PointCloud {
	p := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(i)
		f := float64(i+1) * float64(seed+1)
		p.SetPos(i, vec.New(math.Mod(f*0.73, 10), math.Mod(f*1.31, 10), math.Mod(f*2.17, 10)))
		p.SetVel(i, vec.New(math.Sin(f), math.Cos(f), math.Sin(f*0.5)))
	}
	p.SpeedField()
	return p
}

// runProcViz executes one full parent+child run: the parent serves the
// simulation side over a re-accept loop while RunProc supervises the
// child viz subprocess. kill selects whether the child's first
// incarnation self-SIGKILLs at step 1; codec picks the wire codec ("" =
// raw). Each accepted connection gets a fresh transport.Conn, so under a
// temporal codec every child incarnation starts with a keyframe.
func runProcViz(t *testing.T, dir string, steps int, kill bool, codec string) (restarts int, parentJW *journal.Writer) {
	t.Helper()
	layout := filepath.Join(dir, "layout")
	childJournal := filepath.Join(dir, "viz.journal")
	outDir := filepath.Join(dir, "frames")

	var datasets []data.Dataset
	for s := 0; s < steps; s++ {
		datasets = append(datasets, procCloud(300, int64(s)))
	}
	jw := journal.New()
	sim, err := proxy.NewSimProxy(proxy.SimConfig{Journal: jw, Codec: codec}, &proxy.MemSource{Data: datasets})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := transport.Listen(layout, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// The sim side re-accepts across child incarnations, resuming each
	// connection at the first unacknowledged step.
	var served atomic.Int64
	serveErr := make(chan error, 1)
	go func() {
		next := 0
		for next < sim.Steps() {
			raw, err := ln.Accept()
			if err != nil {
				serveErr <- err
				return
			}
			sconn := transport.NewConn(raw)
			n, _, err := sim.ServeFrom(sconn, next)
			sconn.Close()
			next = n
			served.Store(int64(next))
			if err == nil && next >= sim.Steps() {
				break
			}
		}
		serveErr <- nil
	}()

	env := []string{
		helperEnv + "=1",
		"ETH_LAYOUT=" + layout,
		"ETH_JOURNAL=" + childJournal,
		"ETH_OUT=" + outDir,
	}
	if kill {
		env = append(env, "ETH_KILL_STEP=1")
	}
	cfg := supervise.Config{
		Role: "viz", MaxRestarts: 2,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
		Stall:   10 * time.Second, // generous: liveness probe exercised, never fires
		Journal: jw,
	}
	proc := supervise.Proc{
		Path:         os.Args[0],
		Args:         []string{"-test.run=^TestHelperVizProcess$", "-test.v=false"},
		Env:          env,
		ProgressPath: childJournal,
		Stderr:       os.Stderr,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := supervise.RunProc(ctx, cfg, proc); err != nil {
		t.Fatalf("RunProc: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("sim serve loop: %v", err)
	}
	if int(served.Load()) != steps {
		t.Fatalf("sim served %d steps, want %d", served.Load(), steps)
	}

	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeRestart {
			restarts++
			if !strings.Contains(ev.Detail, "role=viz") || !strings.Contains(ev.Detail, "cause=exit") {
				t.Errorf("restart detail = %q, want role=viz cause=exit", ev.Detail)
			}
		}
	}
	return restarts, jw
}

// procSignature is the completed-step progression a disturbed and an
// undisturbed run must agree on: the (rank, step) of each checkpoint in
// the child's journal, in order (restart/shutdown/error events excluded
// by construction), which torn tails must not corrupt.
func procSignature(t *testing.T, dir string) [][2]int {
	t.Helper()
	events, err := journal.ReadFile(filepath.Join(dir, "viz.journal"))
	if err != nil && !errors.Is(err, journal.ErrTornTail) {
		t.Fatalf("child journal unreadable: %v", err)
	}
	var sig [][2]int
	for _, ev := range events {
		if ev.Type == journal.TypeCheckpoint {
			sig = append(sig, [2]int{ev.Rank, ev.Step})
		}
	}
	return sig
}

func chaosDir(t *testing.T, name string) string {
	t.Helper()
	if base := os.Getenv("ETH_CHAOS_DIR"); base != "" {
		dir := filepath.Join(base, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// TestProcSIGKILLRestartsAndResumes is the issue's subprocess chaos
// criterion end to end.
func TestProcSIGKILLRestartsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	const steps = 3
	baseDir := chaosDir(t, "baseline")
	killDir := chaosDir(t, "sigkill")

	baseRestarts, _ := runProcViz(t, baseDir, steps, false, "")
	if baseRestarts != 0 {
		t.Fatalf("baseline restarts = %d, want 0", baseRestarts)
	}
	killRestarts, _ := runProcViz(t, killDir, steps, true, "")
	if killRestarts != 1 {
		t.Fatalf("restarts = %d, want exactly 1 (one SIGKILL, one recovery)", killRestarts)
	}

	// The restarted run resumed from the cursor: same completed-step
	// progression as the undisturbed run.
	baseSig := procSignature(t, baseDir)
	killSig := procSignature(t, killDir)
	if len(baseSig) == 0 || len(killSig) != len(baseSig) {
		t.Fatalf("checkpoint progression diverged:\nbase: %v\nkill: %v", baseSig, killSig)
	}
	for i := range baseSig {
		if baseSig[i] != killSig[i] {
			t.Fatalf("checkpoint %d diverged: %v vs %v", i, baseSig[i], killSig[i])
		}
	}

	// Same final frame, byte for byte.
	finalName := fmt.Sprintf("step%03d_img%03d_rank0.png", steps-1, 0)
	basePNG, err := os.ReadFile(filepath.Join(baseDir, "frames", finalName))
	if err != nil {
		t.Fatal(err)
	}
	killPNG, err := os.ReadFile(filepath.Join(killDir, "frames", finalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(basePNG, killPNG) {
		t.Errorf("final frame diverged from undisturbed run (%d vs %d bytes)", len(basePNG), len(killPNG))
	}

	// Both incarnations' checkpoints landed on completion.
	events, err := journal.ReadFile(filepath.Join(killDir, "viz.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if c := journal.Cursor(events, 0); c != steps {
		t.Errorf("final cursor = %d, want %d", c, steps)
	}
}

// TestProcSIGKILLDeltaResync is the process-level keyframe-resync proof:
// a SIGKILLed child streaming under the delta codec loses its temporal
// reference state with the dead process, the supervisor restarts it, the
// fresh connection resumes with a keyframe, and the run's artifacts —
// checkpoint progression and the final rendered PNG — are byte-identical
// to an undisturbed *raw* run of the same data. Any resync bug (a stale
// or missing reference) would corrupt every decoded particle and change
// the image.
func TestProcSIGKILLDeltaResync(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos test")
	}
	const steps = 3
	rawDir := chaosDir(t, "delta-baseline")
	deltaDir := chaosDir(t, "delta-sigkill")

	if restarts, _ := runProcViz(t, rawDir, steps, false, ""); restarts != 0 {
		t.Fatalf("raw baseline restarts = %d, want 0", restarts)
	}
	if restarts, _ := runProcViz(t, deltaDir, steps, true, "delta"); restarts != 1 {
		t.Fatalf("delta run restarts = %d, want exactly 1", restarts)
	}

	rawSig := procSignature(t, rawDir)
	deltaSig := procSignature(t, deltaDir)
	if len(rawSig) == 0 || !reflect.DeepEqual(rawSig, deltaSig) {
		t.Fatalf("checkpoint progression diverged:\nraw:   %v\ndelta: %v", rawSig, deltaSig)
	}

	finalName := fmt.Sprintf("step%03d_img%03d_rank0.png", steps-1, 0)
	rawPNG, err := os.ReadFile(filepath.Join(rawDir, "frames", finalName))
	if err != nil {
		t.Fatal(err)
	}
	deltaPNG, err := os.ReadFile(filepath.Join(deltaDir, "frames", finalName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawPNG, deltaPNG) {
		t.Errorf("delta run's final frame diverged from the raw baseline (%d vs %d bytes)",
			len(deltaPNG), len(rawPNG))
	}
}
