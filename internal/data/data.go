// Package data defines ETH's data model: the typed, partitionable objects
// that flow across the simulation-proxy / visualization-proxy interface.
// It is the stand-in for the VTK data objects the paper's implementation
// exchanges (§III-B): a PointCloud for particle codes like HACC and a
// StructuredGrid for volume codes like xRAGE. Both carry named scalar
// fields, report world-space bounds, and can be split into spatial pieces
// for rank-parallel execution.
package data

import (
	"errors"
	"fmt"

	"github.com/ascr-ecx/eth/internal/vec"
)

// Kind discriminates the concrete dataset types carried across the in-situ
// interface.
type Kind uint8

const (
	// KindPointCloud identifies a particle dataset (HACC-like).
	KindPointCloud Kind = iota + 1
	// KindStructuredGrid identifies a regular volume dataset (xRAGE-like).
	KindStructuredGrid
	// KindUnstructuredGrid identifies a tetrahedral mesh — the paper's
	// §VII extension domain.
	KindUnstructuredGrid
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPointCloud:
		return "pointcloud"
	case KindStructuredGrid:
		return "structuredgrid"
	case KindUnstructuredGrid:
		return "unstructuredgrid"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Dataset is the interface every data object implements. It is
// deliberately small: the harness only needs identity, size, bounds, and
// spatial partitioning; renderers type-switch to the concrete type.
type Dataset interface {
	// Kind returns the concrete type tag.
	Kind() Kind
	// Count returns the number of primitive elements (points or cells).
	Count() int
	// Bounds returns the world-space bounding box of the dataset.
	Bounds() vec.AABB
	// Bytes returns the approximate in-memory payload size, used by the
	// transport layer and the cluster model to account data movement.
	Bytes() int64
	// Partition splits the dataset into n spatial pieces whose union is
	// the dataset. Pieces may be empty when n exceeds the data's extent.
	Partition(n int) []Dataset
}

// ErrFieldMissing is returned when a named field is not present.
var ErrFieldMissing = errors.New("data: field not found")

// Field is a named scalar array attached to a dataset, one value per
// point (PointCloud) or per vertex (StructuredGrid).
type Field struct {
	Name   string
	Values []float32
}

// MinMax returns the range of the field values (see Range).
func (f *Field) MinMax() (lo, hi float32) { return Range(f.Values) }

// Range returns the least and greatest of vals, skipping NaNs. It returns
// (0, 0) when vals holds nothing else.
func Range(vals []float32) (lo, hi float32) {
	first := 0
	for first < len(vals) && vals[first] != vals[first] {
		first++
	}
	if first == len(vals) {
		return 0, 0
	}
	lo, hi = vals[first], vals[first]
	for _, v := range vals[first+1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
