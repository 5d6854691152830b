package proxy

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/ascr-ecx/eth/internal/analysis"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vec"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

func clusteredCloud() *data.PointCloud {
	// Two tight clusters of 60 particles each plus 30 background.
	p := data.NewPointCloud(150)
	idx := 0
	put := func(c vec.V3, n int, spread float64) {
		for i := 0; i < n; i++ {
			p.IDs[idx] = int64(idx)
			off := vec.New(
				float64(i%4)*spread, float64((i/4)%4)*spread, float64(i/16)*spread,
			)
			p.SetPos(idx, c.Add(off))
			idx++
		}
	}
	put(vec.New(5, 5, 5), 60, 0.1)
	put(vec.New(25, 25, 25), 60, 0.1)
	put(vec.New(15, 15, 15), 30, 3.0)
	p.SpeedField()
	return p
}

func TestHaloOperation(t *testing.T) {
	dir := t.TempDir()
	op := &HaloOperation{}
	if op.Name() != "halos" {
		t.Error("name wrong")
	}
	res, err := op.Apply(OpContext{Step: 1, Rank: 0, OutDir: dir}, clusteredCloud())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtractBytes == 0 {
		t.Error("no extract written")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "halos_step001_rank0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var halos []analysis.Halo
	if err := json.Unmarshal(raw, &halos); err != nil {
		t.Fatal(err)
	}
	if len(halos) != 2 {
		t.Errorf("catalog has %d halos, want 2", len(halos))
	}
	// Wrong kind rejected.
	if _, err := op.Apply(OpContext{}, data.NewStructuredGrid(2, 2, 2)); err == nil {
		t.Error("grid accepted by halo operation")
	}
	// No OutDir: computes but writes nothing.
	res, err = op.Apply(OpContext{}, clusteredCloud())
	if err != nil || res.ExtractBytes != 0 {
		t.Errorf("dry apply: %v, %d bytes", err, res.ExtractBytes)
	}
}

func TestStatsOperationAllKinds(t *testing.T) {
	dir := t.TempDir()
	op := &StatsOperation{}

	grid := data.NewStructuredGrid(4, 4, 4)
	grid.FillField("temperature", func(p vec.V3) float32 { return float32(p.X) })

	datasets := []data.Dataset{
		clusteredCloud(),
		grid,
		data.Tetrahedralize(grid),
	}
	for i, ds := range datasets {
		res, err := op.Apply(OpContext{Step: i, OutDir: dir}, ds)
		if err != nil {
			t.Fatalf("kind %v: %v", ds.Kind(), err)
		}
		if res.Summary == "" || res.ExtractBytes == 0 {
			t.Errorf("kind %v: empty result", ds.Kind())
		}
	}
	// Extract is valid JSON with consistent histogram totals.
	raw, err := os.ReadFile(filepath.Join(dir, "stats_step001_rank0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ex struct {
		Field     string `json:"field"`
		BinCounts []int  `json:"binCounts"`
		Stats     struct {
			Count int `json:"Count"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.BinCounts) != 16 {
		t.Errorf("histogram has %d bins, want 16", len(ex.BinCounts))
	}
	total := 0
	for _, c := range ex.BinCounts {
		total += c
	}
	if total != ex.Stats.Count {
		t.Errorf("histogram counts %d != field count %d", total, ex.Stats.Count)
	}
	// Missing field errors.
	if _, err := op.Apply(OpContext{}, data.NewPointCloud(3)); err == nil {
		t.Error("missing speed field accepted")
	}
}

func TestSaveOperationRoundTrips(t *testing.T) {
	dir := t.TempDir()
	op := &SaveOperation{}
	cloud := clusteredCloud()
	res, err := op.Apply(OpContext{Step: 2, Rank: 1, OutDir: dir}, cloud)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtractBytes == 0 {
		t.Error("nothing written")
	}
	got, err := vtkio.ReadFile(filepath.Join(dir, "data_step002_rank1.ethd"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != cloud.Count() {
		t.Errorf("round trip count = %d", got.Count())
	}
	// Without OutDir: no-op.
	res, err = op.Apply(OpContext{}, cloud)
	if err != nil || res.ExtractBytes != 0 {
		t.Errorf("dry save: %v, %d", err, res.ExtractBytes)
	}
}

func TestVizProxyRunsOperations(t *testing.T) {
	dir := t.TempDir()
	vp, err := NewVizProxy(VizConfig{
		Width: 48, Height: 48,
		Algorithm:     "points",
		ImagesPerStep: 1,
		OutDir:        dir,
		Operations: []Operation{
			&HaloOperation{},
			&StatsOperation{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vp.EnsureOutDir(); err != nil {
		t.Fatal(err)
	}
	res, err := vp.RenderStep(0, clusteredCloud())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ops) != 2 {
		t.Fatalf("ops = %d", len(res.Ops))
	}
	if res.Ops[0].Op != "halos" || res.Ops[1].Op != "stats" {
		t.Errorf("op order: %+v", res.Ops)
	}
	// Artifacts: 1 png + halos json + stats json.
	files, _ := os.ReadDir(dir)
	if len(files) != 3 {
		t.Errorf("artifacts = %d, want 3", len(files))
	}
}

func TestStatsWelfordAccuracy(t *testing.T) {
	vals := []float32{2, 4, 4, 4, 5, 5, 7, 9}
	st := analysis.Stats(vals)
	if st.Count != 8 || st.Min != 2 || st.Max != 9 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.Mean-5) > 1e-12 {
		t.Errorf("mean = %v", st.Mean)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if math.Abs(st.Std-math.Sqrt(32.0/7)) > 1e-9 {
		t.Errorf("std = %v", st.Std)
	}
	if analysis.Stats(nil).Count != 0 {
		t.Error("empty stats")
	}
}
