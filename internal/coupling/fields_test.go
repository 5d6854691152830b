package coupling

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/faults"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/sampling"
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

// cosmoSteps generates a small cosmology run: positions, IDs, velocities
// and speed per particle, the halos drifting from step to step.
func cosmoSteps(t *testing.T, steps int) []data.Dataset {
	t.Helper()
	var out []data.Dataset
	for s := 0; s < steps; s++ {
		p, err := cosmo.Generate(cosmo.Params{Particles: 3000, BoxSize: 10, Halos: 6, HaloFraction: 0.7, Seed: 1, TimeStep: 3 * s})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
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

// fieldRun is one run: per rank, the frame signature of each step, the
// wire bytes of each step's dataset and the sim proxy; the blank frames;
// and the details of the sims' field events.
type fieldRun struct {
	sigs    [][]uint32
	bytes   []map[int]int64
	sims    []*proxy.SimProxy
	blank   int
	applied []string
}

// runOpts are a run's settings beyond its renderer, ranks and mode:
// analysis operations on every viz (saving under outDir), a socket run's
// faults, and the sim's stratified sampling ratio (0 samples nothing).
type runOpts struct {
	ops    []proxy.Operation
	outDir string
	pol    Policy
	ratio  float64
}

// runSteps renders steps with alg at ranks pairs in mode.
func runSteps(t *testing.T, steps []data.Dataset, alg string, ranks int, mode Mode, o runOpts) fieldRun {
	t.Helper()
	jw := journal.New()
	run := fieldRun{sigs: make([][]uint32, ranks), bytes: make([]map[int]int64, ranks), sims: make([]*proxy.SimProxy, ranks)}
	logs := make([]*sigLog, ranks)
	pairs := make([]PairSpec, ranks)
	for r := range pairs {
		sim, err := proxy.NewSimProxy(proxy.SimConfig{
			Rank: r, Ranks: ranks, Journal: jw,
			SamplingRatio: o.ratio, SamplingMethod: sampling.Stratified,
		}, &proxy.MemSource{Data: steps})
		if err != nil {
			t.Fatal(err)
		}
		logs[r] = &sigLog{}
		viz, err := proxy.NewVizProxy(proxy.VizConfig{
			// Three images: the last, published one does not see the
			// default slice plane edge-on.
			Rank: r, Width: 40, Height: 32, Algorithm: alg, ImagesPerStep: 3,
			Operations: o.ops, OutDir: o.outDir, Publisher: logs[r],
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs[r] = PairSpec{Sim: sim, Viz: viz}
		run.sims[r] = sim
	}
	var err error
	switch {
	case mode == Unified:
		_, err = RunPairs(pairs, Unified, "", jw)
	case ranks == 1:
		_, err = RunSocketPair(context.Background(), pairs[0].Sim, pairs[0].Viz,
			filepath.Join(t.TempDir(), "layout"), 0, o.pol, jw)
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
		switch {
		case ev.Type == journal.TypeSerialize:
			run.bytes[ev.Rank][ev.Step] = ev.Bytes
		case ev.Type == journal.TypeSample && strings.Contains(ev.Detail, "fields="):
			run.applied = append(run.applied, ev.Detail)
		}
	}
	return run
}

// encodedLen is the raw wire size of ds.
func encodedLen(t *testing.T, ds data.Dataset) int64 {
	t.Helper()
	b, err := vtkio.Append(nil, ds)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b))
}

// gridBytes is the raw wire size of rank r's piece of g split ranks
// ways, carrying g's first nf fields.
func gridBytes(t *testing.T, g *data.StructuredGrid, ranks, r, nf int) int64 {
	t.Helper()
	narrowed := *g
	narrowed.Fields = g.Fields[:nf]
	piece := data.Dataset(&narrowed)
	if ranks > 1 {
		piece = narrowed.Partition(ranks)[r]
	}
	return encodedLen(t, piece)
}

// cloudBytes is the raw wire size of rank r's piece of p split ranks
// ways and sampled at ratio, as the sim proxy sends it: whole, or
// narrowed to its positions and speed.
func cloudBytes(t *testing.T, p *data.PointCloud, ranks, r int, ratio float64, narrowed bool) int64 {
	t.Helper()
	if narrowed {
		speed, err := p.Field("speed")
		if err != nil {
			t.Fatal(err)
		}
		p = &data.PointCloud{X: p.X, Y: p.Y, Z: p.Z, Fields: []data.Field{*speed}}
	}
	if ranks > 1 {
		p = p.Partition(ranks)[r].(*data.PointCloud)
	}
	if ratio > 0 {
		var err error
		if p, err = sampling.Points(p, ratio, sampling.Stratified, 0); err != nil {
			t.Fatal(err)
		}
	}
	return encodedLen(t, p)
}

// checkBytes holds each rank's wire bytes at each of steps steps to
// want(rank, step).
func checkBytes(t *testing.T, name string, run fieldRun, steps int, want func(r, step int) int64) {
	t.Helper()
	for r := range run.bytes {
		for s := 0; s < steps; s++ {
			if got, want := run.bytes[r][s], want(r, s); got != want {
				t.Errorf("%s rank %d step %d: %d bytes on the wire, want %d", name, r, s, got, want)
			}
		}
	}
}

// blastBytes is checkBytes's want for blast steps split ranks ways
// carrying fields(step) of their fields, temperature first.
func blastBytes(t *testing.T, steps []data.Dataset, ranks int, fields func(step int) int) func(r, step int) int64 {
	return func(r, s int) int64 {
		g := steps[s].(*data.StructuredGrid)
		if g.Fields[0].Name != "temperature" {
			t.Fatalf("blast's first field is %q", g.Fields[0].Name)
		}
		return gridBytes(t, g, ranks, r, fields(s))
	}
}

// fieldRow is one renderer, rank count and stratified sampling ratio
// (0 samples nothing) of the rendered-field tests.
type fieldRow struct {
	alg   string
	ranks int
	ratio float64
}

// fieldRows are every renderer at 1 and 2 ranks, and points sampled.
func fieldRows() []fieldRow {
	var rows []fieldRow
	for _, alg := range []string{"vtk-iso", "vtk-slice", "ray-iso", "ray-slice", "points", "gsplat", "raycast"} {
		for _, ranks := range []int{1, 2} {
			rows = append(rows, fieldRow{alg, ranks, 0})
		}
	}
	return append(rows, fieldRow{"points", 1, 0.5}, fieldRow{"points", 2, 0.5})
}

func (c fieldRow) String() string {
	name := fmt.Sprintf("%s/%d ranks", c.alg, c.ranks)
	if c.ratio > 0 {
		name += fmt.Sprintf("/stratified %g", c.ratio)
	}
	return name
}

// cloudAlg reports whether the row renders a cosmology cloud.
func (c fieldRow) cloudAlg() bool {
	return c.alg == "points" || c.alg == "gsplat" || c.alg == "raycast"
}

// TestSocketSendsOnlyTheRenderedField: a socket pair renders frames
// identical to a unified run of the same spec while every dataset after
// the first on the connection carries only what the renderer reads: a
// blast grid its one field, a cosmology cloud its positions and speed,
// without IDs or velocities, whole or pieced or sampled.
func TestSocketSendsOnlyTheRenderedField(t *testing.T) {
	blasts, clouds := blastSteps(t, 4), cosmoSteps(t, 4)
	for _, c := range fieldRows() {
		name := c.String()
		steps := blasts
		want := blastBytes(t, steps, c.ranks, func(step int) int {
			if step == 0 {
				return 3
			}
			return 1
		})
		if c.cloudAlg() {
			steps = clouds
			want = func(r, step int) int64 {
				return cloudBytes(t, steps[step].(*data.PointCloud), c.ranks, r, c.ratio, step > 0)
			}
		}
		o := runOpts{ratio: c.ratio}
		unified := runSteps(t, steps, c.alg, c.ranks, Unified, o)
		socket := runSteps(t, steps, c.alg, c.ranks, Socket, o)
		if !reflect.DeepEqual(socket.sigs, unified.sigs) {
			t.Errorf("%s: socket frame signatures %x, unified %x", name, socket.sigs, unified.sigs)
		}
		// Blank frames would agree whatever crossed the wire.
		if len(socket.sigs[0]) != len(steps) || socket.blank != 0 {
			t.Errorf("%s: %d frames for %d steps, %d blank", name, len(socket.sigs[0]), len(steps), socket.blank)
		}
		checkBytes(t, name, socket, len(steps), want)
	}
}

// TestUnifiedSendsOnlyTheRenderedField is the unified twin of
// TestSocketSendsOnlyTheRenderedField: the unified coupling asks the sim
// for the renderer's field in process, so from the first step on each
// rank's sample holds exactly the arrays a socket pair sends after its
// first step. Each sim journals the applied field once, at step 0.
func TestUnifiedSendsOnlyTheRenderedField(t *testing.T) {
	blasts, clouds := blastSteps(t, 4), cosmoSteps(t, 4)
	for _, c := range fieldRows() {
		name := c.String()
		steps, field := blasts, "temperature"
		want := blastBytes(t, steps, c.ranks, func(int) int { return 1 })
		if c.cloudAlg() {
			steps, field = clouds, "speed"
			want = func(r, step int) int64 {
				return cloudBytes(t, steps[step].(*data.PointCloud), c.ranks, r, c.ratio, true)
			}
		}
		run := runSteps(t, steps, c.alg, c.ranks, Unified, runOpts{ratio: c.ratio})
		if len(run.applied) != c.ranks {
			t.Errorf("%s: field events %q, want one per rank", name, run.applied)
		}
		for _, d := range run.applied {
			if !strings.HasPrefix(d, "sim applied step=0 fields="+field+" ") {
				t.Errorf("%s: field event %q, want %s applied at step 0", name, d, field)
			}
		}
		// The sims hand out the same sample again: the request outlives
		// the run, and each step's data is a function of the step.
		for r, sim := range run.sims {
			for s := range steps {
				ds, err := sim.StepData(s)
				if err != nil {
					t.Fatal(err)
				}
				var fs []data.Field
				switch d := ds.(type) {
				case *data.StructuredGrid:
					fs = d.Fields
				case *data.PointCloud:
					fs = d.Fields
				}
				if len(fs) != 1 || fs[0].Name != field {
					t.Errorf("%s rank %d step %d: sample carries %d fields, want %s alone", name, r, s, len(fs), field)
				}
				if got, want := encodedLen(t, ds), want(r, s); got != want {
					t.Errorf("%s rank %d step %d: sample encodes to %d bytes, want %d", name, r, s, got, want)
				}
			}
		}
	}
}

// TestFieldRequestFallbacksSendWhole: a viz that saves what it receives
// asks for nothing, in either mode, and saves all three fields of every
// step; a run whose request is dropped on the wire sends every field and
// still renders the same frames.
func TestFieldRequestFallbacksSendWhole(t *testing.T) {
	steps := blastSteps(t, 3)
	whole := blastBytes(t, steps, 1, func(int) int { return 3 })

	for _, mode := range []Mode{Socket, Unified} {
		dir := t.TempDir()
		saved := runSteps(t, steps, "vtk-iso", 1, mode, runOpts{ops: []proxy.Operation{&proxy.SaveOperation{}}, outDir: dir})
		if mode == Socket {
			checkBytes(t, "save", saved, len(steps), whole)
		}
		for s := range steps {
			ds, err := vtkio.ReadFile(filepath.Join(dir, fmt.Sprintf("data_step%03d_rank0.ethd", s)))
			if err != nil {
				t.Fatal(err)
			}
			if got := ds.(*data.StructuredGrid).Fields; len(got) != 3 {
				t.Errorf("%v: saved step %d carries %d fields, want 3", mode, s, len(got))
			}
		}
	}

	unified := runSteps(t, steps, "vtk-iso", 1, Unified, runOpts{})
	sched := faults.New(1, faults.Rule{Side: faults.SideViz, Conn: 0, Op: faults.OpWrite, Nth: 0, Action: faults.Drop})
	dropped := runSteps(t, steps, "vtk-iso", 1, Socket, runOpts{pol: Policy{Faults: sched}})
	if fired := sched.Fired(); len(fired) != 1 {
		t.Fatalf("fault schedule fired %v, want the request's drop once", fired)
	}
	if !reflect.DeepEqual(dropped.sigs, unified.sigs) {
		t.Errorf("request dropped: frame signatures %x, unified %x", dropped.sigs, unified.sigs)
	}
	checkBytes(t, "dropped request", dropped, len(steps), whole)
}
