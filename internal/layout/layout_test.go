package layout

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ascr-ecx/eth/internal/core"
	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/sampling"
)

const goodSpec = `{
	"name": "hacc-sweep",
	"workload": {"kind": "hacc", "particles": 10000, "steps": 2, "seed": 3},
	"pairs": 2,
	"coupling": "unified",
	"algorithm": "gsplat",
	"image": {"width": 64, "height": 64, "imagesPerStep": 1},
	"sampling": {"ratio": 0.5, "method": "stride"}
}`

func TestParseGoodSpec(t *testing.T) {
	s, err := Parse([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "hacc-sweep" || s.Pairs != 2 || s.Algorithm != "gsplat" {
		t.Errorf("spec = %+v", s)
	}
	if s.Sampling.Ratio != 0.5 {
		t.Errorf("ratio = %v", s.Sampling.Ratio)
	}
}

// unknownFields rename goodSpec's "pairs" key into specs Parse must
// refuse.
var unknownFields = map[string]string{
	"typo":          `"paris"`,
	"retired field": `"compress": true, "pairs"`, // now "codec": "flate"
}

func TestParseRejectsUnknownFields(t *testing.T) {
	for name, to := range unknownFields {
		bad := strings.Replace(goodSpec, `"pairs"`, to, 1)
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// invalidSpecs are edits of goodSpec that decode but fail Validate.
var invalidSpecs = []struct{ name, from, to string }{
	{"bad workload kind", `"kind": "hacc"`, `"kind": "fluid"`},
	{"zero particles", `"particles": 10000`, `"particles": 0`},
	{"bad coupling", `"coupling": "unified"`, `"coupling": "quantum"`},
	{"bad algorithm", `"algorithm": "gsplat"`, `"algorithm": "blender"`},
	{"zero width", `"width": 64`, `"width": 0`},
	{"bad ratio", `"ratio": 0.5`, `"ratio": 2.0`},
	{"bad method", `"method": "stride"`, `"method": "psychic"`},
	{"zero steps", `"steps": 2`, `"steps": 0`},
}

func TestValidationErrors(t *testing.T) {
	for _, c := range invalidSpecs {
		bad := strings.Replace(goodSpec, c.from, c.to, 1)
		if bad == goodSpec {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(goodSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "hacc-sweep" {
		t.Error("load mismatch")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestToMeasuredSpecAndRun(t *testing.T) {
	s, err := Parse([]byte(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.ToMeasuredSpec(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != coupling.Unified || spec.Ranks != 2 {
		t.Errorf("spec = %+v", spec)
	}
	res, err := core.RunMeasured(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elements == 0 {
		t.Error("layout-driven run produced nothing")
	}
	// Sampling applied (50% of 10000/2-rank pieces).
	if res.Elements > 7000 {
		t.Errorf("sampling not applied: %d elements", res.Elements)
	}
}

func TestSocketSpec(t *testing.T) {
	sock := strings.Replace(goodSpec, `"coupling": "unified"`, `"coupling": "socket"`, 1)
	s, err := Parse([]byte(sock))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.ToMeasuredSpec(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != coupling.Socket || spec.LayoutPath == "" {
		t.Errorf("socket spec: %+v", spec)
	}
	res, err := core.RunMeasured(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesMoved == 0 {
		t.Error("socket layout moved no bytes")
	}
}

const xrageSpec = `{
	"name": "blast",
	"workload": {"kind": "xrage", "grid": 32, "steps": 1, "seed": 1},
	"algorithm": "ray-iso",
	"image": {"width": 48, "height": 48, "imagesPerStep": 1}
}`

func TestXRAGESpec(t *testing.T) {
	s, err := Parse([]byte(xrageSpec))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.ToMeasuredSpec(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunMeasured(spec); err != nil {
		t.Fatal(err)
	}
}

const diskSpec = `{
	"name": "replay",
	"workload": {"kind": "disk", "glob": "/nonexistent/*.ethd"},
	"algorithm": "points",
	"image": {"width": 32, "height": 32}
}`

func TestDiskSpecGlobValidation(t *testing.T) {
	s, err := Parse([]byte(diskSpec))
	if err != nil {
		t.Fatal(err) // validation passes; glob resolution happens at run
	}
	if _, err := s.ToMeasuredSpec(t.TempDir()); err == nil {
		t.Error("empty glob accepted at conversion")
	}
}

func TestOperationsInSpec(t *testing.T) {
	withOps := strings.Replace(goodSpec, `"sampling": {"ratio": 0.5, "method": "stride"}`,
		`"sampling": {"ratio": 0.5, "method": "stride"},
		"operations": ["halos", "stats"]`, 1)
	s, err := Parse([]byte(withOps))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := s.ToMeasuredSpec(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Operations) != 2 {
		t.Fatalf("operations = %d", len(spec.Operations))
	}
	res, err := core.RunMeasured(spec)
	if err != nil {
		t.Fatal(err)
	}
	ops := res.Reports[0].Viz.Results[0].Ops
	if len(ops) != 2 || ops[0].Op != "halos" || ops[1].Op != "stats" {
		t.Errorf("ops = %+v", ops)
	}

	bad := strings.Replace(withOps, `"halos"`, `"telepathy"`, 1)
	if _, err := Parse([]byte(bad)); err == nil {
		t.Error("unknown operation accepted")
	}
}

// TestMethodAndOperationNames pins the two name vocabularies a layout
// shares with the commands (ethsim -method, ethviz -ops): every valid
// name and the parsers' strictness. Only a layout maps an absent method
// to random.
func TestMethodAndOperationNames(t *testing.T) {
	for _, c := range []struct {
		name    string
		want    sampling.Method
		wantErr bool
	}{
		{"random", sampling.Random, false},
		{"stride", sampling.Stride, false},
		{"stratified", sampling.Stratified, false},
		{"", 0, true},
		{"Random", 0, true},
		{" stride", 0, true},
		{"method(0)", 0, true},
		{"psychic", 0, true},
	} {
		got, err := sampling.ParseMethod(c.name)
		if (err != nil) != c.wantErr || got != c.want {
			t.Errorf("ParseMethod(%q) = %v, %v; want %v, error %v", c.name, got, err, c.want, c.wantErr)
		}
	}
	if m, err := (SamplingSpec{}).method(); err != nil || m != sampling.Random {
		t.Errorf("absent layout method = %v, %v; want random", m, err)
	}

	for _, c := range []struct {
		names   []string
		want    []string
		wantErr bool
	}{
		{nil, nil, false},
		{[]string{"halos"}, []string{"halos"}, false},
		{[]string{"stats"}, []string{"stats"}, false},
		{[]string{"save"}, []string{"save"}, false},
		{[]string{"save", "halos", "stats", "halos"}, []string{"save", "halos", "stats", "halos"}, false},
		{[]string{""}, nil, true},
		{[]string{"Halos"}, nil, true},
		{[]string{"halos", " stats"}, nil, true},
		{[]string{"telepathy"}, nil, true},
	} {
		ops, err := proxy.ParseOperations(c.names)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseOperations(%q) error = %v, want error %v", c.names, err, c.wantErr)
			continue
		}
		var got []string
		for _, op := range ops {
			got = append(got, op.Name())
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("ParseOperations(%q) = %v, want %v", c.names, got, c.want)
		}
	}
}
