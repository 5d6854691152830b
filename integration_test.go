package eth_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTwoProcessWorkflow drives the paper's §III-C workflow end to end
// with real OS processes: ethgen exports data, ethsim starts first and
// registers in the layout file, ethviz connects and renders, artifacts
// land on disk. This is the acceptance test for the multi-process
// architecture.
func TestTwoProcessWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bin := buildTools(t, dir, "ethgen", "ethsim", "ethviz", "ethrun")

	dataDir := filepath.Join(dir, "data")
	out, err := exec.Command(bin["ethgen"],
		"-workload", "hacc", "-particles", "20000", "-steps", "2",
		"-out", dataDir).CombinedOutput()
	if err != nil {
		t.Fatalf("ethgen: %v\n%s", err, out)
	}
	files, _ := filepath.Glob(filepath.Join(dataDir, "*.ethd"))
	if len(files) != 2 {
		t.Fatalf("ethgen wrote %d files", len(files))
	}

	layoutPath := filepath.Join(dir, "eth.layout")
	framesDir := filepath.Join(dir, "frames")

	const ranks = 2
	sims := make([]*exec.Cmd, ranks)
	for r := 0; r < ranks; r++ {
		sims[r] = exec.Command(bin["ethsim"],
			"-data", filepath.Join(dataDir, "*.ethd"),
			"-rank", itoa(r), "-ranks", itoa(ranks),
			"-layout", layoutPath,
			"-codec", "flate",
			"-sampling", "0.8")
		if err := sims[r].Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, s := range sims {
			if s.Process != nil {
				s.Process.Kill()
			}
		}
	}()

	vizOut := make([][]byte, ranks)
	vizErr := make([]error, ranks)
	done := make(chan int, ranks)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			cmd := exec.Command(bin["ethviz"],
				"-rank", itoa(r),
				"-layout", layoutPath,
				"-algorithm", "gsplat",
				"-width", "96", "-height", "96",
				"-images", "2",
				"-out", framesDir,
				"-timeout", "20s")
			vizOut[r], vizErr[r] = cmd.CombinedOutput()
			done <- r
		}(r)
	}
	deadline := time.After(60 * time.Second)
	for i := 0; i < ranks; i++ {
		select {
		case r := <-done:
			if vizErr[r] != nil {
				t.Fatalf("ethviz rank %d: %v\n%s", r, vizErr[r], vizOut[r])
			}
			if !strings.Contains(string(vizOut[r]), "2 steps") {
				t.Errorf("rank %d output: %s", r, vizOut[r])
			}
		case <-deadline:
			t.Fatal("visualization proxies timed out")
		}
	}
	for _, s := range sims {
		if err := s.Wait(); err != nil {
			t.Fatalf("ethsim exit: %v", err)
		}
	}
	// 2 ranks x 2 steps x 2 images = 8 artifacts.
	pngs, _ := filepath.Glob(filepath.Join(framesDir, "*.png"))
	if len(pngs) != 8 {
		t.Errorf("artifacts = %d, want 8", len(pngs))
	}
}

// TestEthrunSpecFile runs ethrun against a job-layout file (§VII).
func TestEthrunSpecFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bin := buildTools(t, dir, "ethrun")
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
		"name": "it",
		"workload": {"kind": "xrage", "grid": 32, "steps": 1, "seed": 1},
		"pairs": 2,
		"coupling": "socket",
		"algorithm": "ray-iso",
		"image": {"width": 64, "height": 64, "imagesPerStep": 1}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin["ethrun"], "-spec", spec).CombinedOutput()
	if err != nil {
		t.Fatalf("ethrun -spec: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "socket coupling") {
		t.Errorf("output: %s", out)
	}
	if !strings.Contains(string(out), "MB moved") {
		t.Errorf("output missing interface traffic: %s", out)
	}
}

// TestEthrunSpecHonoursRunFlags proves the robustness and supervision
// flags mean the same thing with -spec as without: the layout file says
// what runs, the flags say how. An injected checksum fault makes the
// degradation policy visible in the journal.
func TestEthrunSpecHonoursRunFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bin := buildTools(t, dir, "ethrun")
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
		"name": "it",
		"workload": {"kind": "hacc", "particles": 5000, "steps": 3, "seed": 1},
		"pairs": 1,
		"coupling": "socket",
		"algorithm": "points",
		"image": {"width": 32, "height": 32, "imagesPerStep": 1}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sched := filepath.Join(dir, "sched.txt")
	if err := os.WriteFile(sched, []byte("sim:0:write[1]:corrupt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "run.jsonl")
	out, err := exec.Command(bin["ethrun"], "-spec", spec,
		"-retries", "2", "-watchdog", "5s", "-faults", sched, "-trace", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("ethrun -spec: %v\n%s", err, out)
	}
	journal, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pair_start mode=socket supervised", // -watchdog supervises the pair
		"cause=checksum attempt=1/2",        // -faults fired, -retries is the budget
	} {
		if !strings.Contains(string(journal), want) {
			t.Errorf("journal lacks %q:\n%s", want, journal)
		}
	}
}

// TestEthbenchResumeSkipsFinished runs one experiment under -trace, then
// the same command with -resume: the journal records table1's run_end,
// so the second run skips it and journals no new run_start.
func TestEthbenchResumeSkipsFinished(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bin := buildTools(t, dir, "ethbench")
	trace := filepath.Join(dir, "bench.jsonl")
	args := []string{"-only", "table1", "-notiming", "-trace", trace}
	out, err := exec.Command(bin["ethbench"], args...).CombinedOutput()
	if err != nil {
		t.Fatalf("ethbench: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "skipped") {
		t.Fatalf("fresh run skipped an experiment:\n%s", out)
	}
	first, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(first), `"type":"run_end"`); n != 1 {
		t.Fatalf("journal records %d run_end events, want 1:\n%s", n, first)
	}
	out, err = exec.Command(bin["ethbench"], append(args, "-resume")...).CombinedOutput()
	if err != nil {
		t.Fatalf("ethbench -resume: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "skipped") {
		t.Errorf("resumed run did not skip table1:\n%s", out)
	}
	second, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(second), `"type":"run_start"`); n != 1 {
		t.Errorf("journal records %d run_start events after -resume, want 1:\n%s", n, second)
	}
}

// buildTools compiles the named cmd binaries into dir once per test.
func buildTools(t *testing.T, dir string, names ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range names {
		path := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", path, "./cmd/"+name)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, msg)
		}
		out[name] = path
	}
	return out
}

func itoa(i int) string {
	return string(rune('0' + i))
}
