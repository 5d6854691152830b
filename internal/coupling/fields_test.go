package coupling

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/faults"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// blastSteps generates a small blast run: three fields per step, the
// front advancing from step to step.
func blastSteps(t *testing.T, steps int) []data.Dataset {
	t.Helper()
	var out []data.Dataset
	for s := 0; s < steps; s++ {
		g, err := blast.Generate(blast.Params{NX: 29, NY: 19, NZ: 15, BoxSize: 10, TimeStep: 3 * s, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, g)
	}
	return out
}

// sigLog records each published frame's signature in publish order, and
// how many of them were blank.
type sigLog struct {
	sigs  []uint32
	blank int
}

func (l *sigLog) PublishFrame(_ int, f *fb.Frame) {
	l.sigs = append(l.sigs, hub.FrameSig(f))
	if f.CoveredPixels() == 0 {
		l.blank++
	}
}

// fieldRun is one blast run: per rank, the frame signature of each step
// and the wire bytes of each step's dataset; and the blank frames.
type fieldRun struct {
	sigs  [][]uint32
	bytes []map[int]int64
	blank int
}

// runBlast renders steps with alg at ranks pairs in mode, with ops on
// every viz and pol's faults on a socket run.
func runBlast(t *testing.T, steps []data.Dataset, alg string, ranks int, mode Mode, ops []proxy.Operation, outDir string, pol Policy) fieldRun {
	t.Helper()
	jw := journal.New()
	run := fieldRun{sigs: make([][]uint32, ranks), bytes: make([]map[int]int64, ranks)}
	logs := make([]*sigLog, ranks)
	pairs := make([]PairSpec, ranks)
	for r := range pairs {
		sim, err := proxy.NewSimProxy(proxy.SimConfig{Rank: r, Ranks: ranks, Journal: jw}, &proxy.MemSource{Data: steps})
		if err != nil {
			t.Fatal(err)
		}
		logs[r] = &sigLog{}
		viz, err := proxy.NewVizProxy(proxy.VizConfig{
			// Three images: the last, published one does not see the
			// default slice plane edge-on.
			Rank: r, Width: 40, Height: 32, Algorithm: alg, ImagesPerStep: 3,
			Operations: ops, OutDir: outDir, Publisher: logs[r],
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs[r] = PairSpec{Sim: sim, Viz: viz}
	}
	var err error
	switch {
	case mode == Unified:
		_, err = RunPairs(pairs, Unified, "", jw)
	case ranks == 1:
		_, err = RunSocketPair(context.Background(), pairs[0].Sim, pairs[0].Viz,
			filepath.Join(t.TempDir(), "layout"), 0, pol, jw)
	default:
		_, err = RunPairs(pairs, Socket, filepath.Join(t.TempDir(), "layout"), jw)
	}
	if err != nil {
		t.Fatalf("%s %d ranks %v: %v", alg, ranks, mode, err)
	}
	for r := range pairs {
		run.sigs[r] = logs[r].sigs
		run.bytes[r] = map[int]int64{}
		run.blank += logs[r].blank
	}
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeSerialize {
			run.bytes[ev.Rank][ev.Step] = ev.Bytes
		}
	}
	return run
}

// encodedBytes is the raw wire size of rank r's piece of g split ranks
// ways, carrying g's first nf fields.
func encodedBytes(t *testing.T, g *data.StructuredGrid, ranks, r, nf int) int64 {
	t.Helper()
	narrowed := *g
	narrowed.Fields = g.Fields[:nf]
	piece := data.Dataset(&narrowed)
	if ranks > 1 {
		piece = narrowed.Partition(ranks)[r]
	}
	b, err := vtkio.Append(nil, piece)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b))
}

// checkBytes holds each step's wire bytes to the piece with wantFields(step)
// of the blast fields, temperature first.
func checkBytes(t *testing.T, name string, run fieldRun, steps []data.Dataset, wantFields func(step int) int) {
	t.Helper()
	ranks := len(run.bytes)
	for r := range run.bytes {
		for s, ds := range steps {
			g := ds.(*data.StructuredGrid)
			if g.Fields[0].Name != "temperature" {
				t.Fatalf("blast's first field is %q", g.Fields[0].Name)
			}
			nf := wantFields(s)
			if got, want := run.bytes[r][s], encodedBytes(t, g, ranks, r, nf); got != want {
				t.Errorf("%s rank %d step %d: %d bytes on the wire, want %d (%d of %d fields)",
					name, r, s, got, want, nf, len(g.Fields))
			}
		}
	}
}

// TestSocketSendsOnlyTheRenderedField: a blast socket pair renders
// frames identical to a unified run of the same spec while every
// dataset after the first on the connection carries only the field the
// renderer reads.
func TestSocketSendsOnlyTheRenderedField(t *testing.T) {
	steps := blastSteps(t, 4)
	for _, alg := range []string{"vtk-iso", "vtk-slice", "ray-iso", "ray-slice"} {
		for _, ranks := range []int{1, 2} {
			name := fmt.Sprintf("%s/%d ranks", alg, ranks)
			unified := runBlast(t, steps, alg, ranks, Unified, nil, "", Policy{})
			socket := runBlast(t, steps, alg, ranks, Socket, nil, "", Policy{})
			if !reflect.DeepEqual(socket.sigs, unified.sigs) {
				t.Errorf("%s: socket frame signatures %x, unified %x", name, socket.sigs, unified.sigs)
			}
			// Blank frames would agree whatever crossed the wire.
			if len(socket.sigs[0]) != len(steps) || socket.blank != 0 {
				t.Errorf("%s: %d frames for %d steps, %d blank", name, len(socket.sigs[0]), len(steps), socket.blank)
			}
			checkBytes(t, name, socket, steps, func(step int) int {
				if step == 0 {
					return 3
				}
				return 1
			})
		}
	}
}

// TestFieldRequestFallbacksSendWhole: a viz that saves what it receives
// asks for nothing and saves all three fields of every step; a run whose
// request is dropped on the wire sends every field and still renders
// the same frames.
func TestFieldRequestFallbacksSendWhole(t *testing.T) {
	steps := blastSteps(t, 3)
	whole := func(int) int { return 3 }

	dir := t.TempDir()
	saved := runBlast(t, steps, "vtk-iso", 1, Socket, []proxy.Operation{&proxy.SaveOperation{}}, dir, Policy{})
	checkBytes(t, "save", saved, steps, whole)
	for s := range steps {
		ds, err := vtkio.ReadFile(filepath.Join(dir, fmt.Sprintf("data_step%03d_rank0.ethd", s)))
		if err != nil {
			t.Fatal(err)
		}
		if got := ds.(*data.StructuredGrid).Fields; len(got) != 3 {
			t.Errorf("saved step %d carries %d fields, want 3", s, len(got))
		}
	}

	unified := runBlast(t, steps, "vtk-iso", 1, Unified, nil, "", Policy{})
	sched := faults.New(1, faults.Rule{Side: faults.SideViz, Conn: 0, Op: faults.OpWrite, Nth: 0, Action: faults.Drop})
	dropped := runBlast(t, steps, "vtk-iso", 1, Socket, nil, "", Policy{Faults: sched})
	if fired := sched.Fired(); len(fired) != 1 {
		t.Fatalf("fault schedule fired %v, want the request's drop once", fired)
	}
	if !reflect.DeepEqual(dropped.sigs, unified.sigs) {
		t.Errorf("request dropped: frame signatures %x, unified %x", dropped.sigs, unified.sigs)
	}
	checkBytes(t, "dropped request", dropped, steps, whole)
}
