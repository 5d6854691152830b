// Package layout implements the job-layout file of the paper's §VII:
// "The job layout (i.e., where the visualization and simulation proxies
// are run) is specified in a separate file... For subsequent exploration
// of a different layout, the user simply changes the job layout file."
// A layout spec is a JSON document describing the whole experiment —
// workload, proxy pairs, coupling, algorithm, sampling — which
// cmd/ethrun executes directly (-spec file.json), so sweeping the design
// space means editing files, not code.
package layout

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/ascr-ecx/eth/internal/core"
	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/transport"
)

// Spec is the top-level job-layout document.
type Spec struct {
	// Name labels the experiment.
	Name string `json:"name"`
	// Workload selects the data source.
	Workload WorkloadSpec `json:"workload"`
	// Pairs is the number of simulation/visualization proxy pairs.
	Pairs int `json:"pairs"`
	// Coupling is "unified" (tight) or "socket".
	Coupling string `json:"coupling"`
	// Algorithm names the rendering back-end.
	Algorithm string `json:"algorithm"`
	// Image shapes the render output.
	Image ImageSpec `json:"image"`
	// Sampling configures spatial sampling (optional).
	Sampling SamplingSpec `json:"sampling"`
	// Codec names the socket-coupling wire codec: "raw", "flate", "delta",
	// or "delta+flate" (empty means raw).
	Codec string `json:"codec"`
	// Operations lists in-situ analysis steps ("halos", "stats", "save").
	Operations []string `json:"operations"`
	// OutDir receives PNG artifacts (optional).
	OutDir string `json:"outDir"`
}

// WorkloadSpec selects and sizes the data source.
type WorkloadSpec struct {
	// Kind is "hacc", "xrage", or "disk".
	Kind string `json:"kind"`
	// Particles sizes hacc workloads.
	Particles int `json:"particles"`
	// Grid is the longest grid edge for xrage workloads.
	Grid int `json:"grid"`
	// Steps is the time-step count for synthetic workloads.
	Steps int `json:"steps"`
	// Seed drives synthesis determinism.
	Seed int64 `json:"seed"`
	// Glob matches exported files for disk workloads.
	Glob string `json:"glob"`
}

// ImageSpec shapes the render output.
type ImageSpec struct {
	Width         int `json:"width"`
	Height        int `json:"height"`
	ImagesPerStep int `json:"imagesPerStep"`
}

// SamplingSpec configures spatial sampling.
type SamplingSpec struct {
	// Ratio in (0, 1]; 0 means no sampling.
	Ratio float64 `json:"ratio"`
	// Method is "random", "stride", or "stratified"; empty means random.
	Method string `json:"method"`
}

func (s SamplingSpec) method() (sampling.Method, error) {
	if s.Method == "" {
		return sampling.Random, nil
	}
	return sampling.ParseMethod(s.Method)
}

// Load reads and validates a spec from a JSON file.
func Load(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}

// Parse decodes and validates a spec from JSON bytes. Unknown fields are
// rejected so typos in layout files fail loudly.
func Parse(raw []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate reports specification errors with actionable messages.
func (s *Spec) Validate() error {
	switch s.Workload.Kind {
	case "hacc":
		if s.Workload.Particles <= 0 {
			return fmt.Errorf("layout: hacc workload needs particles > 0")
		}
	case "xrage":
		if s.Workload.Grid < 4 {
			return fmt.Errorf("layout: xrage workload needs grid >= 4")
		}
	case "disk":
		if s.Workload.Glob == "" {
			return fmt.Errorf("layout: disk workload needs a glob")
		}
	default:
		return fmt.Errorf("layout: unknown workload kind %q (want hacc, xrage, disk)", s.Workload.Kind)
	}
	if s.Workload.Kind != "disk" && s.Workload.Steps <= 0 {
		return fmt.Errorf("layout: synthetic workloads need steps > 0")
	}
	if s.Pairs < 0 {
		return fmt.Errorf("layout: negative pair count")
	}
	switch s.Coupling {
	case "", "unified", "socket":
	default:
		return fmt.Errorf("layout: unknown coupling %q (want unified or socket)", s.Coupling)
	}
	found := false
	for _, a := range render.Algorithms() {
		if a == s.Algorithm {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("layout: unknown algorithm %q (have %v)", s.Algorithm, render.Algorithms())
	}
	if s.Image.Width <= 0 || s.Image.Height <= 0 {
		return fmt.Errorf("layout: image size %dx%d invalid", s.Image.Width, s.Image.Height)
	}
	if s.Sampling.Ratio < 0 || s.Sampling.Ratio > 1 {
		return fmt.Errorf("layout: sampling ratio %v outside [0, 1]", s.Sampling.Ratio)
	}
	if _, err := s.Sampling.method(); err != nil {
		return err
	}
	if _, err := transport.ParseCodec(s.Codec); err != nil {
		return err
	}
	if _, err := proxy.ParseOperations(s.Operations); err != nil {
		return err
	}
	return nil
}

// ToMeasuredSpec converts the layout to a runnable harness spec.
// layoutDir is used for socket-coupling rendezvous files.
func (s *Spec) ToMeasuredSpec(layoutDir string) (core.MeasuredSpec, error) {
	var (
		wl  core.Workload
		err error
	)
	switch s.Workload.Kind {
	case "hacc":
		wl = core.HACCWorkload(s.Workload.Particles, s.Workload.Steps, s.Workload.Seed)
	case "xrage":
		g := s.Workload.Grid
		wl = core.XRAGEWorkload(g, g*112/184, g*96/184, s.Workload.Steps, s.Workload.Seed)
	case "disk":
		paths, gerr := filepath.Glob(s.Workload.Glob)
		if gerr != nil || len(paths) == 0 {
			return core.MeasuredSpec{}, fmt.Errorf("layout: no files match %q", s.Workload.Glob)
		}
		wl, err = core.DiskWorkload(s.Name, paths...)
		if err != nil {
			return core.MeasuredSpec{}, err
		}
	}

	mode := coupling.Unified
	layoutPath := ""
	if s.Coupling == "socket" {
		mode = coupling.Socket
		layoutPath = filepath.Join(layoutDir, "rendezvous.layout")
	}
	method, err := s.Sampling.method()
	if err != nil {
		return core.MeasuredSpec{}, err
	}
	ops, err := proxy.ParseOperations(s.Operations)
	if err != nil {
		return core.MeasuredSpec{}, err
	}
	return core.MeasuredSpec{
		Workload:       wl,
		Operations:     ops,
		Algorithm:      s.Algorithm,
		Width:          s.Image.Width,
		Height:         s.Image.Height,
		ImagesPerStep:  s.Image.ImagesPerStep,
		Ranks:          s.Pairs,
		Mode:           mode,
		LayoutPath:     layoutPath,
		SamplingRatio:  s.Sampling.Ratio,
		SamplingMethod: method,
		Codec:          s.Codec,
		OutDir:         s.OutDir,
	}, nil
}
