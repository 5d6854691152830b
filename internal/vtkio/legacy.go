package vtkio

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"github.com/ascr-ecx/eth/internal/data"
)

// ExportLegacyVTK writes ds in the ASCII "legacy" VTK file format
// (# vtk DataFile Version 3.0) so ETH extracts open directly in ParaView
// or VisIt — closing the loop with the production tools the paper
// positions ETH beside. Point clouds export as POLYDATA vertices,
// structured grids as STRUCTURED_POINTS, and tetrahedral meshes as
// UNSTRUCTURED_GRID cells, each with their scalar fields as POINT_DATA.
func ExportLegacyVTK(w io.Writer, ds data.Dataset, title string) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if title == "" {
		title = "ETH export"
	}
	fmt.Fprintf(bw, "# vtk DataFile Version 3.0\n%s\nASCII\n", title)
	switch d := ds.(type) {
	case *data.PointCloud:
		if err := legacyPointCloud(bw, d); err != nil {
			return err
		}
	case *data.StructuredGrid:
		if err := legacyStructured(bw, d); err != nil {
			return err
		}
	case *data.UnstructuredGrid:
		if err := legacyUnstructured(bw, d); err != nil {
			return err
		}
	default:
		return fmt.Errorf("vtkio: legacy export does not support %T", ds)
	}
	return bw.Flush()
}

// ExportLegacyVTKFile writes ds to the named .vtk file.
func ExportLegacyVTKFile(path string, ds data.Dataset, title string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ExportLegacyVTK(f, ds, title); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func legacyPointCloud(w *bufio.Writer, p *data.PointCloud) error {
	n := p.Count()
	fmt.Fprintf(w, "DATASET POLYDATA\nPOINTS %d float\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%g %g %g\n", p.X[i], p.Y[i], p.Z[i])
	}
	fmt.Fprintf(w, "VERTICES %d %d\n", n, 2*n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "1 %d\n", i)
	}
	fmt.Fprintf(w, "POINT_DATA %d\n", n)
	// Velocity as a vector attribute, when the cloud carries it.
	if p.HasVelocities() {
		fmt.Fprintf(w, "VECTORS velocity float\n")
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "%g %g %g\n", p.VX[i], p.VY[i], p.VZ[i])
		}
	}
	return legacyFields(w, p.Fields)
}

func legacyStructured(w *bufio.Writer, g *data.StructuredGrid) error {
	fmt.Fprintf(w, "DATASET STRUCTURED_POINTS\n")
	fmt.Fprintf(w, "DIMENSIONS %d %d %d\n", g.NX, g.NY, g.NZ)
	fmt.Fprintf(w, "ORIGIN %g %g %g\n", g.Origin.X, g.Origin.Y, g.Origin.Z)
	fmt.Fprintf(w, "SPACING %g %g %g\n", g.Spacing.X, g.Spacing.Y, g.Spacing.Z)
	fmt.Fprintf(w, "POINT_DATA %d\n", g.Count())
	return legacyFields(w, g.Fields)
}

func legacyUnstructured(w *bufio.Writer, u *data.UnstructuredGrid) error {
	fmt.Fprintf(w, "DATASET UNSTRUCTURED_GRID\nPOINTS %d float\n", u.Count())
	for _, p := range u.Points {
		fmt.Fprintf(w, "%g %g %g\n", p.X, p.Y, p.Z)
	}
	fmt.Fprintf(w, "CELLS %d %d\n", u.Cells(), 5*u.Cells())
	for _, t := range u.Tets {
		fmt.Fprintf(w, "4 %d %d %d %d\n", t[0], t[1], t[2], t[3])
	}
	fmt.Fprintf(w, "CELL_TYPES %d\n", u.Cells())
	for range u.Tets {
		fmt.Fprintln(w, 10) // VTK_TETRA
	}
	fmt.Fprintf(w, "POINT_DATA %d\n", u.Count())
	return legacyFields(w, u.Fields)
}

func legacyFields(w *bufio.Writer, fields []data.Field) error {
	for _, f := range fields {
		fmt.Fprintf(w, "SCALARS %s float 1\nLOOKUP_TABLE default\n", sanitizeName(f.Name))
		for _, v := range f.Values {
			fmt.Fprintf(w, "%g\n", v)
		}
	}
	return nil
}

// sanitizeName replaces whitespace in field names (the legacy format is
// whitespace-delimited).
func sanitizeName(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c == ' ' || c == '\t' || c == '\n' {
			out[i] = '_'
		}
	}
	if len(out) == 0 {
		return "field"
	}
	return string(out)
}
