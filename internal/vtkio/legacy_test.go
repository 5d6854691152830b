package vtkio

import (
	"bytes"
	"strings"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
)

func TestLegacyExportPointCloud(t *testing.T) {
	p := sampleCloud(5, 1)
	var buf bytes.Buffer
	if err := ExportLegacyVTK(&buf, p, "test cloud"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"test cloud",
		"ASCII",
		"DATASET POLYDATA",
		"POINTS 5 float",
		"VERTICES 5 10",
		"POINT_DATA 5",
		"VECTORS velocity float",
		"SCALARS speed float 1",
		"LOOKUP_TABLE default",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in export", want)
		}
	}
	// One coordinate line per point plus attribute lines — sanity on size.
	if lines := strings.Count(out, "\n"); lines < 5*3 {
		t.Errorf("export suspiciously short (%d lines)", lines)
	}
}

func TestLegacyExportStructured(t *testing.T) {
	g := sampleGrid()
	var buf bytes.Buffer
	if err := ExportLegacyVTK(&buf, g, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"DATASET STRUCTURED_POINTS",
		"DIMENSIONS 4 5 6",
		"ORIGIN -1 2 3",
		"SPACING 0.5 0.25 2",
		"POINT_DATA 120",
		"SCALARS temp float 1",
		"SCALARS rho float 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestLegacyExportUnstructured(t *testing.T) {
	u := data.Tetrahedralize(sampleGrid())
	var buf bytes.Buffer
	if err := ExportLegacyVTK(&buf, u, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"DATASET UNSTRUCTURED_GRID",
		"CELL_TYPES",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	// Every cell line starts with "4 " and cell type is 10 (tetra).
	if !strings.Contains(out, "\n4 ") {
		t.Error("no tetra cells emitted")
	}
	if !strings.Contains(out, "\n10\n") {
		t.Error("no VTK_TETRA cell types")
	}
}

func TestLegacyExportFieldNameSanitized(t *testing.T) {
	p := data.NewPointCloud(1)
	p.Fields = append(p.Fields, data.Field{Name: "my field", Values: []float32{1}})
	var buf bytes.Buffer
	if err := ExportLegacyVTK(&buf, p, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SCALARS my_field float 1") {
		t.Error("field name not sanitized")
	}
}
