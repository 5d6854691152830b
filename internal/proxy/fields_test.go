package proxy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/raceflag"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/transport"
)

// blastLikeSteps is a source of steps n x 6 x 5 grids carrying three
// fields, as blast volumes do, whose values change from step to step.
func blastLikeSteps(n, steps int) *MemSource {
	src := &MemSource{}
	for step := 0; step < steps; step++ {
		g := data.NewStructuredGrid(n, 6, 5)
		for f, name := range []string{"temperature", "density", "pressure"} {
			vals := make([]float32, g.Count())
			for i := range vals {
				vals[i] = float32(i%97 + 100*step + 1000*f)
			}
			g.Fields = append(g.Fields, data.Field{Name: name, Values: vals})
		}
		src.Data = append(src.Data, g)
	}
	return src
}

// fieldsOf lists the field names a received dataset carries, and for a
// cloud then "[ids]" and "[velocities]" when it carries those arrays.
func fieldsOf(ds data.Dataset) []string {
	var fs []data.Field
	var arrays []string
	switch d := ds.(type) {
	case *data.StructuredGrid:
		fs = d.Fields
	case *data.PointCloud:
		fs = d.Fields
		if len(d.IDs) != 0 {
			arrays = append(arrays, "[ids]")
		}
		if d.HasVelocities() {
			arrays = append(arrays, "[velocities]")
		}
	}
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return append(names, arrays...)
}

// fakeViz plays the visualization side of one connection: it sends a
// field request for field (none when empty), then receives and acks
// datasets, recording each one's field names, until Done — or, with
// hangUpAt >= 0, until it has received that many datasets, the last of
// which it leaves unacked before closing the connection.
func fakeViz(conn *transport.Conn, field string, hangUpAt int) (got [][]string, err error) {
	defer conn.Close()
	if field != "" {
		p, err := hub.EncodeMsg(nil, hub.Msg{Kind: hub.KindField, Field: field})
		if err != nil {
			return nil, err
		}
		if err := conn.SendControl(p); err != nil {
			return nil, err
		}
	}
	for {
		typ, ds, step, err := conn.Recv()
		if err != nil {
			return got, err
		}
		if typ == transport.MsgDone {
			return got, nil
		}
		got = append(got, fieldsOf(ds))
		if len(got) == hangUpAt {
			return got, nil
		}
		if err := conn.SendAck(step); err != nil {
			return got, err
		}
	}
}

// serveTo runs sp.ServeFrom(from) against fakeViz over a socket pair and
// returns what the viz side received and the step the sim reached.
func serveTo(t *testing.T, sp *SimProxy, from int, field string, hangUpAt int) ([][]string, int) {
	t.Helper()
	a, b := protoPair(t)
	type vizOut struct {
		got [][]string
		err error
	}
	vc := make(chan vizOut, 1)
	go func() {
		got, err := fakeViz(b, field, hangUpAt)
		vc <- vizOut{got, err}
	}()
	next, _, serr := sp.ServeFrom(a, from)
	a.Close()
	v := <-vc
	if hangUpAt < 0 && (serr != nil || v.err != nil) {
		t.Fatalf("serve from %d: sim error %v, viz error %v", from, serr, v.err)
	}
	return v.got, next
}

// fieldsApplied returns the details of the sim's field events.
func fieldsApplied(jw *journal.Writer) []string {
	var out []string
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeSample && strings.Contains(ev.Detail, "fields=") {
			out = append(out, ev.Detail)
		}
	}
	return out
}

var (
	all3      = []string{"temperature", "density", "pressure"}
	temp      = []string{"temperature"}
	wholePC   = []string{"speed", "[ids]", "[velocities]"}
	narrowPC  = []string{"speed"}
	cloudStep = testCloud(50, 1)
)

// TestSimSendsRequestedField: the step in flight when a request arrives
// goes out whole, every later one carries only the requested field — a
// cloud its positions and that field, without IDs or velocities; a
// request the dataset cannot honour, or no request, sends everything.
// Each connection journals the applied set once.
func TestSimSendsRequestedField(t *testing.T) {
	clouds := &MemSource{Data: []data.Dataset{cloudStep, cloudStep, cloudStep}}
	for _, c := range []struct {
		name, field string
		src         StepSource
		ranks       int
		want        [][]string
		event       string
	}{
		{"temperature", "temperature", blastLikeSteps(9, 3), 1,
			[][]string{all3, temp, temp}, "sim applied step=1 fields=temperature kept=1/3"},
		{"temperature at 2 ranks", "temperature", blastLikeSteps(9, 3), 2,
			[][]string{all3, temp, temp}, "sim applied step=1 fields=temperature kept=1/3"},
		{"missing field", "entropy", blastLikeSteps(9, 3), 1,
			[][]string{all3, all3, all3}, "sim applied step=1 fields=entropy kept=3/3"},
		{"no request", "", blastLikeSteps(9, 3), 1,
			[][]string{all3, all3, all3}, ""},
		{"cloud", "speed", clouds, 1,
			[][]string{wholePC, narrowPC, narrowPC}, "sim applied step=1 fields=speed kept=1/1 dropped=ids,velocities"},
		{"cloud at 2 ranks", "speed", clouds, 2,
			[][]string{wholePC, narrowPC, narrowPC}, "sim applied step=1 fields=speed kept=1/1 dropped=ids,velocities"},
		{"cloud missing field", "mass", clouds, 1,
			[][]string{wholePC, wholePC, wholePC}, "sim applied step=1 fields=mass kept=1/1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			jw := journal.New()
			sp, err := NewSimProxy(SimConfig{Ranks: c.ranks, Journal: jw}, c.src)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := serveTo(t, sp, 0, c.field, -1)
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("fields per step = %v, want %v", got, c.want)
			}
			var want []string
			if c.event != "" {
				want = []string{c.event}
			}
			if ev := fieldsApplied(jw); !reflect.DeepEqual(ev, want) {
				t.Errorf("field events = %q, want %q", ev, want)
			}
		})
	}
}

// TestSimFieldRequestEndsWithItsConnection: a reconnect starts whole
// again — its first step carries every field even though the previous
// connection's request had narrowed the stream — and its own request
// narrows the steps after it.
func TestSimFieldRequestEndsWithItsConnection(t *testing.T) {
	jw := journal.New()
	sp, err := NewSimProxy(SimConfig{Journal: jw}, blastLikeSteps(9, 5))
	if err != nil {
		t.Fatal(err)
	}
	// The first viz hangs up on receiving step 2, before acking it.
	got, next := serveTo(t, sp, 0, "temperature", 3)
	if want := [][]string{all3, temp, temp}; !reflect.DeepEqual(got, want) {
		t.Fatalf("first connection: fields per step = %v, want %v", got, want)
	}
	if next != 2 {
		t.Fatalf("first connection acked up to %d, want 2", next)
	}
	got, next = serveTo(t, sp, next, "temperature", -1)
	if want := [][]string{all3, temp, temp}; !reflect.DeepEqual(got, want) {
		t.Errorf("reconnect from step 2: fields per step = %v, want %v", got, want)
	}
	if next != 5 {
		t.Errorf("reconnect ended at %d, want 5", next)
	}
	want := []string{
		"sim applied step=1 fields=temperature kept=1/3",
		"sim applied step=3 fields=temperature kept=1/3",
	}
	if ev := fieldsApplied(jw); !reflect.DeepEqual(ev, want) {
		t.Errorf("field events = %q, want %q", ev, want)
	}
}

// TestSimFieldFilterAllocs: narrowing to the requested field copies and
// allocates nothing, whole, pieced or sampled: a warm StepData with no
// journal allocates nothing at all.
func TestSimFieldFilterAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	clouds := &MemSource{Data: []data.Dataset{testCloud(3000, 1), testCloud(3000, 2)}}
	for _, c := range []struct {
		name, field string
		cfg         SimConfig
		src         StepSource
	}{
		{"grid", "temperature", SimConfig{}, blastLikeSteps(21, 2)},
		{"grid at 2 ranks", "temperature", SimConfig{Ranks: 2}, blastLikeSteps(21, 2)},
		{"cloud sampled", "speed", SimConfig{SamplingRatio: 0.5, SamplingMethod: sampling.Stratified}, clouds},
		{"cloud at 2 ranks", "speed", SimConfig{Ranks: 2}, clouds},
	} {
		sp, err := NewSimProxy(c.cfg, c.src)
		if err != nil {
			t.Fatal(err)
		}
		sp.field = c.field
		step := 0
		next := func() {
			ds, err := sp.StepData(step % 2)
			if err != nil {
				t.Fatal(err)
			}
			if pc, ok := ds.(*data.PointCloud); fieldCount(ds) != 1 || ok && (len(pc.IDs) != 0 || pc.HasVelocities()) {
				panic(fmt.Sprintf("narrowed step carries %d fields", fieldCount(ds)))
			}
			step++
		}
		next()
		if n := testing.AllocsPerRun(20, next); n != 0 {
			t.Errorf("%s: a warm narrowed StepData allocates %.0f times, want 0", c.name, n)
		}
	}
}

// TestVizRequestsItsRenderersField: Receive opens with one request
// naming the field its renderer reads — ColorField, else the kind's
// default — and a proxy with analysis operations asks for nothing.
func TestVizRequestsItsRenderersField(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  VizConfig
		want []string
	}{
		{"grid default", VizConfig{Algorithm: "vtk-iso"}, temp},
		{"cloud default", VizConfig{Algorithm: "points"}, []string{"speed"}},
		{"color field", VizConfig{Algorithm: "ray-slice", Options: render.Options{ColorField: "density"}}, []string{"density"}},
		{"operations", VizConfig{Algorithm: "vtk-iso", Operations: []Operation{&StatsOperation{}}}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b := protoPair(t)
			var got []string
			a.OnControl(func(p []byte) error {
				m, err := hub.DecodeMsg(p)
				if err != nil || m.Kind != hub.KindField {
					return fmt.Errorf("control frame %+v, err %v", m, err)
				}
				got = append(got, m.Field)
				return nil
			})
			c.cfg.Width, c.cfg.Height = 8, 8
			vp, err := NewVizProxy(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SendDone(); err != nil {
				t.Fatal(err)
			}
			if err := vp.Receive(b); err != nil {
				t.Fatal(err)
			}
			b.Close()
			if _, _, _, err := a.Recv(); err == nil {
				t.Fatal("the viz side sent more than its request")
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("requested %q, want %q", got, c.want)
			}
		})
	}
}
