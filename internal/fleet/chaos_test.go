//go:build unix

package fleet_test

// Fleet-level chaos: SIGKILL the workers mid-experiment, SIGKILL the
// scheduler mid-sweep, and prove the resumed fleet converges to the
// same completed-spec set and byte-identical artifacts as an
// unperturbed serial run — with the conservation law
// completed + quarantined == submitted intact throughout.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
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

// serialBaseline runs the same spec IDs unperturbed, one worker, fresh
// dir, and returns the artifact bytes per spec — the ground truth the
// chaotic runs must reproduce exactly.
func serialBaseline(t *testing.T, dir string, ids []string, steps int) map[string][]byte {
	t.Helper()
	s, err := fleet.New(fleet.Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var specs []fleet.Spec
	for _, id := range ids {
		specs = append(specs, helperSpec(id, "", steps, 0, dir))
	}
	if err := runFleet(t, s, specs); err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	if c := s.Counts(); c.Completed != len(ids) {
		t.Fatalf("serial baseline incomplete: %+v", c)
	}
	arts := map[string][]byte{}
	for _, id := range ids {
		raw, err := os.ReadFile(filepath.Join(dir, "artifacts", id, "result.txt"))
		if err != nil {
			t.Fatalf("serial baseline artifact %s: %v", id, err)
		}
		arts[id] = raw
	}
	return arts
}

// TestFleetChaosWorkerSIGKILL: half the fleet's workers die by kill -9
// mid-write (torn journal tails included); the retry ladder re-runs
// them, resumed workers skip completed steps, and the fleet converges
// to the serial baseline — same completed set, byte-identical
// artifacts, every step ingested exactly once, and each crash surfaced
// as exactly one torn-tail event in the merged journal.
func TestFleetChaosWorkerSIGKILL(t *testing.T) {
	base := chaosDir(t)
	dir := filepath.Join(base, "chaotic")
	const steps = 6
	ids := []string{"c-00", "c-01", "c-02", "c-03", "c-04", "c-05"}
	crashed := map[string]bool{"c-00": true, "c-02": true, "c-04": true}

	baseline := serialBaseline(t, filepath.Join(base, "serial"), ids, steps)

	s, err := fleet.New(fleet.Config{
		Dir: dir, Workers: 3,
		Retries:     4,
		BackoffBase: 50 * time.Millisecond,
		Stall:       5 * time.Second,
		Poll:        5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var specs []fleet.Spec
	for _, id := range ids {
		mode := ""
		if crashed[id] {
			mode = "crash-once"
		}
		specs = append(specs, helperSpec(id, mode, steps, 0, dir))
	}
	if err := runFleet(t, s, specs); err != nil {
		t.Fatalf("Run: %v", err)
	}

	c := s.Counts()
	if c.Completed != len(ids) || c.Quarantined != 0 || !c.Balanced() {
		t.Fatalf("counts %+v, want all %d completed despite worker kills", c, len(ids))
	}
	got := checkpointDone(t, dir)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Fatalf("completed %v, want %v", got, ids)
	}

	// Artifacts must match the unperturbed serial run byte for byte.
	for _, id := range ids {
		raw, err := os.ReadFile(filepath.Join(dir, "artifacts", id, "result.txt"))
		if err != nil {
			t.Fatalf("artifact %s: %v", id, err)
		}
		if !bytes.Equal(raw, baseline[id]) {
			t.Errorf("artifact %s diverged from serial baseline:\nchaos:  %q\nserial: %q", id, raw, baseline[id])
		}
	}

	// Merged-journal accounting: every step of every spec ingested
	// exactly once (workers resume, never replay), and each crash's
	// torn tail reported exactly once.
	events, err := journal.ReadFile(filepath.Join(dir, fleet.JournalFile))
	if err != nil {
		t.Fatal(err)
	}
	stepsSeen := map[string]map[int]int{}
	tornBySpec := map[string]int{}
	for _, ev := range events {
		switch {
		case ev.Type == journal.TypeRender && ev.Src != "":
			if stepsSeen[ev.Src] == nil {
				stepsSeen[ev.Src] = map[int]int{}
			}
			stepsSeen[ev.Src][ev.Step]++
		case ev.Type == journal.TypeError && strings.Contains(ev.Detail, "torn tail"):
			tornBySpec[ev.Src]++
		}
	}
	for _, id := range ids {
		for step := 0; step < steps; step++ {
			if n := stepsSeen[id][step]; n != 1 {
				t.Errorf("spec %s step %d ingested %d times, want exactly 1", id, step, n)
			}
		}
		wantTorn := 0
		if crashed[id] {
			wantTorn = 1
		}
		if tornBySpec[id] != wantTorn {
			t.Errorf("spec %s: %d torn-tail events in merged journal, want %d", id, tornBySpec[id], wantTorn)
		}
	}
}

const schedHelperEnv = "ETH_FLEET_SCHED"

// TestHelperFleetScheduler is not a test: it is the scheduler
// subprocess for the scheduler-SIGKILL chaos test. It builds a fleet
// in ETH_SCHED_DIR, submits the sweep, and runs until killed.
func TestHelperFleetScheduler(t *testing.T) {
	if os.Getenv(schedHelperEnv) != "1" {
		t.Skip("helper process body; skipped in normal runs")
	}
	os.Exit(fleetSchedulerMain())
}

func fleetSchedulerMain() int {
	dir := os.Getenv("ETH_SCHED_DIR")
	markerDir := os.Getenv("ETH_HELPER_MARKER_DIR")
	n, _ := strconv.Atoi(os.Getenv("ETH_SCHED_SPECS"))
	steps, _ := strconv.Atoi(os.Getenv("ETH_SCHED_STEPS"))
	s, err := fleet.New(fleet.Config{
		Dir: dir, Workers: 3,
		BackoffBase: 25 * time.Millisecond,
		Stall:       10 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background()) }()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("spec-%02d", i)
		mode := ""
		if i%3 == 0 {
			mode = "crash-once"
		}
		sp := helperSpec(id, mode, steps, 5, markerDir)
		sp.Env = append(sp.Env, "ETH_HELPER_STEP_MS=20")
		if err := s.Submit(sp); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.WaitIdle(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	s.Drain()
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// TestFleetChaosSchedulerSIGKILLResume: the scheduler itself is
// SIGKILLed mid-sweep — workers orphaned, queue in flight — and a
// resumed scheduler on the same dir completes every remaining spec
// exactly once, converging on the serial baseline.
func TestFleetChaosSchedulerSIGKILLResume(t *testing.T) {
	base := chaosDir(t)
	dir := filepath.Join(base, "fleet")
	markerDir := filepath.Join(base, "markers")
	for _, d := range []string{dir, markerDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	const nspecs, steps = 9, 6
	var ids []string
	for i := 0; i < nspecs; i++ {
		ids = append(ids, fmt.Sprintf("spec-%02d", i))
	}
	baseline := serialBaseline(t, filepath.Join(base, "serial"), ids, steps)

	// Phase 1: the scheduler subprocess starts the sweep...
	var schedOut bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperFleetScheduler$", "-test.v=false")
	cmd.Env = append(os.Environ(),
		schedHelperEnv+"=1",
		"ETH_SCHED_DIR="+dir,
		"ETH_HELPER_MARKER_DIR="+markerDir,
		"ETH_SCHED_SPECS="+strconv.Itoa(nspecs),
		"ETH_SCHED_STEPS="+strconv.Itoa(steps),
	)
	cmd.Stdout, cmd.Stderr = &schedOut, &schedOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// ...and is SIGKILLed once real progress exists but work remains.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cp, err := fleet.ReadCheckpoint(dir)
		if err == nil && len(cp.Done) >= 2 && len(cp.Done)+len(cp.Quarantined) < len(cp.Specs) {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatalf("scheduler never reached mid-sweep state; output:\n%s", schedOut.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := syscall.Kill(cmd.Process.Pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	cp, err := fleet.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Specs) != nspecs {
		t.Fatalf("checkpoint lost specs across SIGKILL: %d/%d", len(cp.Specs), nspecs)
	}
	t.Logf("killed scheduler with %d/%d specs done", len(cp.Done), nspecs)

	// Phase 2: resume on the same dir. Orphaned workers may still hold
	// their journal flocks for a moment; the retry ladder absorbs that.
	s, err := fleet.New(fleet.Config{
		Dir: dir, Resume: true, Workers: 3,
		BackoffBase: 25 * time.Millisecond,
		Stall:       10 * time.Second,
		Poll:        5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background()) }()
	waitCtx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.WaitIdle(waitCtx); err != nil {
		t.Fatalf("resumed fleet never idled: %v (counts %+v)", err, s.Counts())
	}
	s.Drain()
	if err := <-done; err != nil {
		t.Fatalf("resumed Run: %v", err)
	}

	// Exactly once: the completed set equals the sweep, no duplicates.
	c := s.Counts()
	if c.Submitted != nspecs || c.Completed != nspecs || c.Quarantined != 0 || !c.Balanced() {
		t.Fatalf("resumed counts %+v, want all %d completed, balanced", c, nspecs)
	}
	completed := checkpointDone(t, dir)
	seen := map[string]int{}
	for _, id := range completed {
		seen[id]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("spec %s completed %d times, want exactly once", id, seen[id])
		}
	}

	// Byte-identical artifacts vs the unperturbed serial run.
	for _, id := range ids {
		raw, err := os.ReadFile(filepath.Join(dir, "artifacts", id, "result.txt"))
		if err != nil {
			t.Fatalf("artifact %s: %v", id, err)
		}
		if !bytes.Equal(raw, baseline[id]) {
			t.Errorf("artifact %s diverged from serial baseline:\nchaos:  %q\nserial: %q", id, raw, baseline[id])
		}
	}

	// The final checkpoint alone tells the whole story.
	cp2, err := fleet.ReadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp2.Done) != nspecs || len(cp2.Quarantined) != 0 {
		t.Fatalf("final checkpoint done=%d quarantined=%d, want %d/0", len(cp2.Done), len(cp2.Quarantined), nspecs)
	}
}
