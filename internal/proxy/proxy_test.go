package proxy

import (
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

func testCloud(n int, seed int64) *data.PointCloud {
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

func TestDiskSourceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for step := 0; step < 3; step++ {
		p := filepath.Join(dir, "step"+string(rune('0'+step))+".ethd")
		if err := vtkio.WriteFile(p, testCloud(50+step, int64(step))); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	src, err := NewDiskSource(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if src.Steps() != 3 {
		t.Fatalf("steps = %d", src.Steps())
	}
	ds, err := src.Step(1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Count() != 51 {
		t.Errorf("step 1 count = %d", ds.Count())
	}
	if _, err := src.Step(5); err == nil {
		t.Error("out-of-range step accepted")
	}
	if _, err := NewDiskSource(); err == nil {
		t.Error("empty source accepted")
	}
	// Glob variant.
	gsrc, err := NewDiskSourceGlob(filepath.Join(dir, "*.ethd"))
	if err != nil {
		t.Fatal(err)
	}
	if gsrc.Steps() != 3 {
		t.Errorf("glob steps = %d", gsrc.Steps())
	}
}

func TestSimProxyPartitionAndSampling(t *testing.T) {
	whole := testCloud(1000, 1)
	src := &MemSource{Data: []data.Dataset{whole}}

	// Rank 1 of 4 with 50% sampling.
	sp, err := NewSimProxy(SimConfig{
		Rank: 1, Ranks: 4,
		SamplingRatio:  0.5,
		SamplingMethod: sampling.Stride,
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sp.StepData(0)
	if err != nil {
		t.Fatal(err)
	}
	// 1000/4 = 250 per rank, x0.5 = ~125.
	if ds.Count() < 100 || ds.Count() > 150 {
		t.Errorf("rank piece count = %d, want ~125", ds.Count())
	}
}

func TestSimProxyValidation(t *testing.T) {
	src := &MemSource{Data: []data.Dataset{testCloud(10, 1)}}
	if _, err := NewSimProxy(SimConfig{}, nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := NewSimProxy(SimConfig{Rank: 5, Ranks: 2}, src); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := NewSimProxy(SimConfig{SamplingRatio: -1}, src); err == nil {
		t.Error("negative sampling accepted")
	}
	// Default ratio = 1.
	sp, err := NewSimProxy(SimConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := sp.StepData(0)
	if ds.Count() != 10 {
		t.Errorf("default config altered data: %d", ds.Count())
	}
}

func TestFuncSource(t *testing.T) {
	src := &FuncSource{N: 2, Fn: func(step int) (data.Dataset, error) {
		return testCloud(10*(step+1), int64(step)), nil
	}}
	if src.Steps() != 2 {
		t.Error("steps wrong")
	}
	ds, err := src.Step(1)
	if err != nil || ds.Count() != 20 {
		t.Errorf("func source step: %v %d", err, ds.Count())
	}
}

func TestVizProxyRendersSteps(t *testing.T) {
	vp, err := NewVizProxy(VizConfig{
		Width: 64, Height: 64,
		Algorithm:     "points",
		ImagesPerStep: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vp.RenderStep(0, testCloud(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Images != 3 || res.Elements != 200 {
		t.Errorf("result = %+v", res)
	}
	if res.LastFrame == nil || res.LastFrame.CoveredPixels() == 0 {
		t.Error("no pixels rendered")
	}
	if vp.TotalRenderTime() <= 0 {
		t.Error("no render time recorded")
	}
}

func TestVizProxyWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	vp, err := NewVizProxy(VizConfig{
		Width: 32, Height: 32,
		Algorithm:     "gsplat",
		ImagesPerStep: 2,
		OutDir:        dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vp.EnsureOutDir(); err != nil {
		t.Fatal(err)
	}
	if _, err := vp.RenderStep(0, testCloud(100, 3)); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("artifacts = %d, want 2", len(files))
	}
}

func TestVizProxyValidation(t *testing.T) {
	if _, err := NewVizProxy(VizConfig{Width: 0, Height: 10, Algorithm: "points"}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewVizProxy(VizConfig{Width: 8, Height: 8}); err == nil {
		t.Error("missing algorithm accepted")
	}
	if _, err := NewVizProxy(VizConfig{Width: 8, Height: 8, Algorithm: "bogus"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestServeReceiveProtocol(t *testing.T) {
	// Full protocol over a real socket: 3 steps, ack each, then done.
	src := &MemSource{Data: []data.Dataset{
		testCloud(100, 1), testCloud(120, 2), testCloud(90, 3),
	}}
	sp, err := NewSimProxy(SimConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := NewVizProxy(VizConfig{Width: 32, Height: 32, Algorithm: "points"})
	if err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	simErr := make(chan error, 1)
	var bytesSent int64
	go func() {
		c, err := ln.Accept()
		if err != nil {
			simErr <- err
			return
		}
		conn := transport.NewConn(c)
		defer conn.Close()
		_, n, err := sp.ServeFrom(conn, 0)
		bytesSent = n
		simErr <- err
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := transport.NewConn(c)
	defer conn.Close()
	if err := vp.Receive(conn); err != nil {
		t.Fatal(err)
	}
	if err := <-simErr; err != nil {
		t.Fatal(err)
	}
	if len(vp.Results) != 3 {
		t.Fatalf("rendered %d steps, want 3", len(vp.Results))
	}
	if vp.Results[1].Elements != 120 {
		t.Errorf("step 1 elements = %d", vp.Results[1].Elements)
	}
	if bytesSent == 0 {
		t.Error("no bytes accounted")
	}
}

func TestSimProxyGridSampling(t *testing.T) {
	g := data.NewStructuredGrid(16, 16, 16)
	g.FillField("temperature", func(p vec.V3) float32 { return float32(p.X) })
	src := &MemSource{Data: []data.Dataset{g}}
	sp, err := NewSimProxy(SimConfig{SamplingRatio: 0.1}, src)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sp.StepData(0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Count() >= g.Count() {
		t.Errorf("grid sampling kept %d of %d", ds.Count(), g.Count())
	}
}

// Protocol failure injection: the proxies must detect peers that violate
// the dataset/ack protocol rather than hang or mis-render.

func protoPair(t *testing.T) (*transport.Conn, *transport.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var server net.Conn
	done := make(chan struct{})
	go func() {
		server, _ = ln.Accept()
		close(done)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	a, b := transport.NewConn(client), transport.NewConn(server)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestVizRejectsUnexpectedMessage(t *testing.T) {
	a, b := protoPair(t)
	vp, err := NewVizProxy(VizConfig{Width: 16, Height: 16, Algorithm: "points"})
	if err != nil {
		t.Fatal(err)
	}
	go a.SendAck(0) // protocol violation: ack before any dataset
	if err := vp.Receive(b); err == nil {
		t.Error("viz accepted an unexpected ack")
	}
}

func TestSimRejectsWrongAck(t *testing.T) {
	a, b := protoPair(t)
	sp, err := NewSimProxy(SimConfig{}, &MemSource{Data: []data.Dataset{testCloud(10, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		// Consume the dataset, then ack the wrong step.
		b.Recv()
		b.SendAck(99)
	}()
	if _, _, err := sp.ServeFrom(a, 0); err == nil {
		t.Error("sim accepted a wrong-step ack")
	}
}

func TestSimDetectsPeerDeath(t *testing.T) {
	a, b := protoPair(t)
	sp, err := NewSimProxy(SimConfig{}, &MemSource{Data: []data.Dataset{testCloud(10, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		b.Recv()
		b.Close() // die instead of acking
	}()
	if _, _, err := sp.ServeFrom(a, 0); err == nil {
		t.Error("sim did not detect peer death")
	}
}

func TestVizDetectsPeerDeathMidStream(t *testing.T) {
	a, b := protoPair(t)
	vp, err := NewVizProxy(VizConfig{Width: 16, Height: 16, Algorithm: "points"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		a.SendDataset(testCloud(20, 1))
		// Read the ack, then vanish without Done.
		a.Recv()
		a.Close()
	}()
	if err := vp.Receive(b); err == nil {
		t.Error("viz did not detect missing Done")
	}
	if len(vp.Results) != 1 {
		t.Errorf("viz rendered %d steps before the failure", len(vp.Results))
	}
}
