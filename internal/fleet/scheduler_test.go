//go:build unix

package fleet_test

// Fleet scheduler lifecycle, subprocess half: every worker attempt is
// this very test binary re-executed with ETH_FLEET_HELPER=1 — the
// standard helper-process pattern, so no extra binaries are built. The
// helper emits journal events like a real harness worker, resumes from
// its own journal across attempts, and — on request — dies by SIGKILL
// mid-write, refuses to run (poison), or stops heartbeating (stall).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/fleet"
	"github.com/ascr-ecx/eth/internal/journal"
)

const fleetHelperEnv = "ETH_FLEET_HELPER"

// TestHelperFleetWorker is not a test: it is the worker body, entered
// only when the scheduler under test spawns this binary with
// ETH_FLEET_HELPER=1. It exits through os.Exit, never returning to the
// test framework.
func TestHelperFleetWorker(t *testing.T) {
	if os.Getenv(fleetHelperEnv) != "1" {
		t.Skip("helper process body; skipped in normal runs")
	}
	os.Exit(fleetWorkerMain())
}

// fleetWorkerMain models one experiment worker: journal a configurable
// number of steps (resuming past steps already journaled by an earlier
// attempt), then write a deterministic artifact. ETH_HELPER_MODE
// selects the failure to inject:
//
//	crash-once  SIGKILL itself mid-sweep, leaving a torn journal tail;
//	            later attempts run clean (a marker file arms it once)
//	poison      journal one error then exit 1, every attempt
//	stall       journal one step then stop heartbeating forever
func fleetWorkerMain() int {
	id := os.Getenv("ETH_FLEET_SPEC")
	jpath := os.Getenv("ETH_FLEET_JOURNAL")
	artDir := os.Getenv("ETH_FLEET_ARTIFACTS")
	mode := os.Getenv("ETH_HELPER_MODE")
	steps := 4
	if v := os.Getenv("ETH_HELPER_STEPS"); v != "" {
		steps, _ = strconv.Atoi(v)
	}
	stepDelay := 2 * time.Millisecond
	if v := os.Getenv("ETH_HELPER_STEP_MS"); v != "" {
		ms, _ := strconv.Atoi(v)
		stepDelay = time.Duration(ms) * time.Millisecond
	}

	jw, err := journal.Append(jpath)
	if err != nil {
		// Likely ErrLocked: an orphaned earlier incarnation still holds
		// the journal. Fail this attempt; the retry ladder comes back.
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	if mode == "poison" {
		jw.Emit(journal.Event{Type: journal.TypeError, Rank: 0, Step: -1, Err: "poison spec: refusing to run"})
		jw.Sync()
		jw.Close()
		return 1
	}
	if mode == "stall" {
		jw.Emit(journal.Event{Type: journal.TypeRender, Rank: 0, Step: 0})
		jw.Sync()
		time.Sleep(30 * time.Second) // the lease watchdog kills us first
		return 0
	}

	// Resume point: steps already journaled by earlier attempts stay
	// done — the fleet's exactly-once story depends on workers resuming,
	// not replaying.
	start := 0
	if prior, err := journal.ReadFile(jpath); err == nil {
		for _, ev := range prior {
			if ev.Type == journal.TypeRender {
				start++
			}
		}
	}

	for i := start; i < steps; i++ {
		jw.Emit(journal.Event{Type: journal.TypeRender, Rank: 0, Step: i})
		if err := jw.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if mode == "crash-once" && i == steps/2 {
			marker := filepath.Join(os.Getenv("ETH_HELPER_MARKER_DIR"), id+".crashed")
			if _, err := os.Stat(marker); err != nil {
				_ = os.WriteFile(marker, []byte("armed once\n"), 0o644)
				// kill -9 mid-write: a torn half-event lands at the tail,
				// exactly as an interrupted Emit leaves it. The flock is
				// advisory, so the raw append models the torn write.
				f, _ := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0o644)
				_, _ = f.WriteString(`{"type":"render","ste`)
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {} // unreachable
			}
		}
		time.Sleep(stepDelay)
	}

	if err := os.WriteFile(filepath.Join(artDir, "result.txt"),
		[]byte("artifact:"+id+":steps="+strconv.Itoa(steps)+"\n"), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := jw.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// helperSpec builds an exec spec that re-runs this binary as a worker.
func helperSpec(id, mode string, steps, retries int, markerDir string) fleet.Spec {
	return fleet.Spec{
		ID:   id,
		Kind: fleet.KindExec,
		Args: []string{os.Args[0], "-test.run=^TestHelperFleetWorker$", "-test.v=false"},
		Env: []string{
			fleetHelperEnv + "=1",
			"ETH_HELPER_MODE=" + mode,
			"ETH_HELPER_STEPS=" + strconv.Itoa(steps),
			"ETH_HELPER_MARKER_DIR=" + markerDir,
		},
		Retries: retries,
	}
}

// runFleet drives a scheduler to idle and drains it, returning Run's
// error.
// checkpointDone returns the completed spec IDs, in completion order,
// from the fleet checkpoint in dir.
func checkpointDone(t *testing.T, dir string) []string {
	t.Helper()
	cp, err := fleet.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cp.Done
}

func runFleet(t *testing.T, s *fleet.Scheduler, specs []fleet.Spec) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background()) }()
	for _, sp := range specs {
		if err := s.Submit(sp); err != nil {
			t.Fatalf("Submit(%s): %v", sp.ID, err)
		}
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitIdle(waitCtx); err != nil {
		t.Fatalf("fleet never went idle: %v (counts %+v)", err, s.Counts())
	}
	s.Drain()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Drain")
		return nil
	}
}

// chaosDir returns the artifact dir for a test, honoring ETH_CHAOS_DIR
// so CI can upload fleet state on failure.
func chaosDir(t *testing.T) string {
	if base := os.Getenv("ETH_CHAOS_DIR"); base != "" {
		dir := filepath.Join(base, strings.ReplaceAll(t.Name(), "/", "_"))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// TestFleetCompletesSweep is the happy path: a small sweep across a
// bounded pool completes every spec, balances the conservation law,
// persists a complete checkpoint, and journals the full submit → lease
// → complete lifecycle per spec.
func TestFleetCompletesSweep(t *testing.T) {
	dir := chaosDir(t)
	s, err := fleet.New(fleet.Config{Dir: dir, Workers: 2, BackoffBase: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"exp-a", "exp-b", "exp-c", "exp-d"}
	var specs []fleet.Spec
	for _, id := range ids {
		specs = append(specs, helperSpec(id, "", 3, 0, dir))
	}
	if err := runFleet(t, s, specs); err != nil {
		t.Fatalf("Run: %v", err)
	}

	c := s.Counts()
	if !c.Balanced() || c.Completed != len(ids) || c.Quarantined != 0 {
		t.Fatalf("counts %+v, want %d completed, balanced", c, len(ids))
	}
	got := checkpointDone(t, dir)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("completed %v, want %v", got, ids)
	}
	for _, id := range ids {
		art := filepath.Join(dir, "artifacts", id, "result.txt")
		if _, err := os.Stat(art); err != nil {
			t.Errorf("spec %s left no artifact: %v", id, err)
		}
	}

	// The checkpoint alone reconstructs the fleet.
	cp, err := fleet.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Specs) != len(ids) || len(cp.Done) != len(ids) || len(cp.Quarantined) != 0 {
		t.Fatalf("checkpoint %+v incomplete", cp)
	}

	// The merged journal carries the full lifecycle, tagged by spec.
	events, err := journal.ReadFile(filepath.Join(dir, fleet.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	perSpec := map[string]map[string]int{}
	renders := map[string]int{}
	for _, ev := range events {
		if ev.Src == "" {
			continue
		}
		if perSpec[ev.Src] == nil {
			perSpec[ev.Src] = map[string]int{}
		}
		perSpec[ev.Src][ev.Type]++
		if ev.Type == journal.TypeRender {
			renders[ev.Src]++
		}
	}
	for _, id := range ids {
		m := perSpec[id]
		if m[journal.TypeSubmit] != 1 || m[journal.TypeLease] != 1 || m[journal.TypeComplete] != 1 {
			t.Errorf("spec %s lifecycle events = %v, want 1 submit/lease/complete", id, m)
		}
		if renders[id] != 3 {
			t.Errorf("spec %s: %d worker render events ingested, want 3", id, renders[id])
		}
	}
}

// TestFleetRetryLadder: a poison spec climbs retry → requeue →
// quarantine while a healthy spec completes beside it; the quarantined
// spec keeps its journal tail, and the conservation law still holds.
func TestFleetRetryLadder(t *testing.T) {
	dir := chaosDir(t)
	s, err := fleet.New(fleet.Config{Dir: dir, Workers: 2, BackoffBase: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	specs := []fleet.Spec{
		helperSpec("good", "", 3, 0, dir),
		helperSpec("bad", "poison", 3, 1, dir), // budget 1: two attempts total
	}
	if err := runFleet(t, s, specs); err != nil {
		t.Fatalf("Run: %v", err)
	}

	c := s.Counts()
	if c.Completed != 1 || c.Quarantined != 1 || !c.Balanced() {
		t.Fatalf("counts %+v, want 1 completed + 1 quarantined, balanced", c)
	}
	qs := s.Quarantined()
	if len(qs) != 1 || qs[0].ID != "bad" {
		t.Fatalf("quarantined %+v", qs)
	}
	if qs[0].Attempts != 2 {
		t.Errorf("poison spec burned %d attempts, want 2 (1 + retry budget 1)", qs[0].Attempts)
	}
	if qs[0].TailPath == "" {
		t.Fatal("quarantine kept no journal tail")
	}
	tail, err := os.ReadFile(qs[0].TailPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tail), "poison spec") {
		t.Errorf("preserved tail does not show the failure: %q", tail)
	}

	events, err := journal.ReadFile(filepath.Join(dir, fleet.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	var requeues, quarantines int
	for _, ev := range events {
		if ev.Src != "bad" {
			continue
		}
		switch ev.Type {
		case journal.TypeRequeue:
			requeues++
		case journal.TypeQuarantine:
			quarantines++
		}
	}
	if requeues != 1 || quarantines != 1 {
		t.Errorf("bad spec journaled %d requeues and %d quarantines, want 1 and 1", requeues, quarantines)
	}
}

// TestFleetLeaseKillsStalledWorker: a worker that stops journaling is
// killed by the lease heartbeat and its spec quarantines (no retries)
// with a stall-classified error.
func TestFleetLeaseKillsStalledWorker(t *testing.T) {
	dir := chaosDir(t)
	s, err := fleet.New(fleet.Config{
		Dir: dir, Workers: 1,
		Stall:       300 * time.Millisecond,
		Grace:       100 * time.Millisecond,
		BackoffBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []fleet.Spec{helperSpec("wedged", "stall", 3, -1, dir)}
	if err := runFleet(t, s, specs); err != nil {
		t.Fatalf("Run: %v", err)
	}
	c := s.Counts()
	if c.Quarantined != 1 || !c.Balanced() {
		t.Fatalf("counts %+v, want the stalled spec quarantined", c)
	}
	qs := s.Quarantined()
	if !strings.Contains(qs[0].Err, "stall") {
		t.Errorf("quarantine error %q does not classify the stall", qs[0].Err)
	}
}

// TestFleetDuplicateSubmit: the same ID cannot enter the fleet twice.
func TestFleetDuplicateSubmit(t *testing.T) {
	dir := t.TempDir()
	s, err := fleet.New(fleet.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sp := helperSpec("dup", "", 1, 0, dir)
	if err := s.Submit(sp); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(sp); !errors.Is(err, fleet.ErrDuplicate) {
		t.Fatalf("second Submit = %v, want ErrDuplicate", err)
	}
	// Never ran: close the scheduler by running an already-drained loop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Run(ctx); !errors.Is(err, context.Canceled) && err != nil && !strings.Contains(err.Error(), "shutdown") {
		t.Logf("Run on canceled ctx: %v", err)
	}
}

// TestFleetSecondSchedulerRejected: the fleet journal's flock means one
// scheduler per fleet dir.
func TestFleetSecondSchedulerRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := fleet.New(fleet.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.New(fleet.Config{Dir: dir}); !errors.Is(err, journal.ErrLocked) {
		t.Fatalf("second scheduler = %v, want journal.ErrLocked", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Run(ctx)
}
