package proxy

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/ascr-ecx/eth/internal/analysis"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// writeDataset saves a dataset in the ETHD container.
func writeDataset(path string, ds data.Dataset) error {
	return vtkio.WriteFile(path, ds)
}

// Operation is an in-situ analysis step the visualization proxy applies
// to every received dataset, alongside rendering — the paper's
// "easily configurable visualization operations": "since ETH is based on
// VTK, many operations can be easily added to the pipelines tested, and
// they can be specific to the data and visualizations that are of
// interest" (§III). Operations produce compact extracts (catalogs,
// statistics) rather than pixels.
type Operation interface {
	// Name identifies the operation in results and file names.
	Name() string
	// Apply processes one time step's dataset. ctx carries step/rank
	// identity and the artifact directory (may be empty = do not write).
	Apply(ctx OpContext, ds data.Dataset) (OpResult, error)
}

// OpContext identifies the step an operation runs in.
type OpContext struct {
	Step   int
	Rank   int
	OutDir string
}

// OpResult summarizes one operation application.
type OpResult struct {
	// Op is the operation name.
	Op string
	// Summary is a one-line human-readable digest.
	Summary string
	// ExtractBytes is the size of the extract written (0 if none).
	ExtractBytes int64
}

// ParseOperations returns a fresh operation for each name: halos, stats
// or save.
func ParseOperations(names []string) ([]Operation, error) {
	var out []Operation
	for _, name := range names {
		switch name {
		case "halos":
			out = append(out, &HaloOperation{})
		case "stats":
			out = append(out, &StatsOperation{})
		case "save":
			out = append(out, &SaveOperation{})
		default:
			return nil, fmt.Errorf("proxy: unknown operation %q (want halos, stats, save)", name)
		}
	}
	return out, nil
}

// artifactPath names an operation's per-step output file.
func (c OpContext) artifactPath(op, ext string) string {
	return filepath.Join(c.OutDir,
		fmt.Sprintf("%s_step%03d_rank%d.%s", op, c.Step, c.Rank, ext))
}

// HaloOperation runs the friends-of-friends halo finder, with its default
// linking length and minimum membership, on particle steps and writes the
// halo catalog as JSON — the cosmology extract of the paper's
// introduction.
type HaloOperation struct{}

// Name implements Operation.
func (*HaloOperation) Name() string { return "halos" }

// Apply implements Operation.
func (*HaloOperation) Apply(ctx OpContext, ds data.Dataset) (OpResult, error) {
	cloud, ok := ds.(*data.PointCloud)
	if !ok {
		return OpResult{}, fmt.Errorf("proxy: halos operation requires a point cloud, got %v", ds.Kind())
	}
	halos, err := analysis.FOF(cloud, analysis.FOFOptions{})
	if err != nil {
		return OpResult{}, err
	}
	res := OpResult{
		Op:      "halos",
		Summary: fmt.Sprintf("%d halos from %d particles", len(halos), cloud.Count()),
	}
	if ctx.OutDir != "" {
		raw, err := json.MarshalIndent(halos, "", "  ")
		if err != nil {
			return res, err
		}
		path := ctx.artifactPath("halos", "json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return res, err
		}
		res.ExtractBytes = int64(len(raw))
	}
	return res, nil
}

// StatsOperation computes statistics and a histogram of one field of any
// dataset kind — "speed" for clouds, "temperature" for grids — the
// monitoring extract.
type StatsOperation struct{}

// statsBins is StatsOperation's histogram resolution.
const statsBins = 16

// Name implements Operation.
func (*StatsOperation) Name() string { return "stats" }

// statsExtract is the JSON document StatsOperation writes.
type statsExtract struct {
	Field     string              `json:"field"`
	Stats     analysis.FieldStats `json:"stats"`
	BinEdges  []float64           `json:"binEdges"`
	BinCounts []int               `json:"binCounts"`
}

// Apply implements Operation.
func (*StatsOperation) Apply(ctx OpContext, ds data.Dataset) (OpResult, error) {
	name := "temperature"
	var f *data.Field
	var err error
	switch d := ds.(type) {
	case *data.PointCloud:
		name = "speed"
		f, err = d.Field(name)
	case *data.StructuredGrid:
		f, err = d.Field(name)
	case *data.UnstructuredGrid:
		f, err = d.Field(name)
	default:
		return OpResult{}, fmt.Errorf("proxy: stats operation: unsupported kind %v", ds.Kind())
	}
	if err != nil {
		return OpResult{}, err
	}
	values := f.Values
	st := analysis.Stats(values)
	edges, counts := analysis.Histogram(values, statsBins)
	res := OpResult{
		Op:      "stats",
		Summary: fmt.Sprintf("%s: %s", name, st),
	}
	if ctx.OutDir != "" {
		raw, err := json.MarshalIndent(statsExtract{
			Field: name, Stats: st, BinEdges: edges, BinCounts: counts,
		}, "", "  ")
		if err != nil {
			return res, err
		}
		if err := os.WriteFile(ctx.artifactPath("stats", "json"), raw, 0o644); err != nil {
			return res, err
		}
		res.ExtractBytes = int64(len(raw))
	}
	return res, nil
}

// SaveOperation writes the received dataset back to disk in the ETHD
// container — useful for capturing exactly what crossed the in-situ
// interface (post-sampling), e.g. to validate sampling pipelines.
type SaveOperation struct{}

// Name implements Operation.
func (*SaveOperation) Name() string { return "save" }

// Apply implements Operation.
func (*SaveOperation) Apply(ctx OpContext, ds data.Dataset) (OpResult, error) {
	if ctx.OutDir == "" {
		return OpResult{Op: "save", Summary: "skipped (no output directory)"}, nil
	}
	path := ctx.artifactPath("data", "ethd")
	if err := writeDataset(path, ds); err != nil {
		return OpResult{}, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return OpResult{}, err
	}
	return OpResult{
		Op:           "save",
		Summary:      fmt.Sprintf("wrote %s", filepath.Base(path)),
		ExtractBytes: info.Size(),
	}, nil
}
