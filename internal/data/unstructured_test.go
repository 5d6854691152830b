package data

import (
	"math"
	"testing"

	"github.com/ascr-ecx/eth/internal/vec"
)

func tetTestGrid() *UnstructuredGrid {
	g := NewStructuredGrid(6, 5, 4)
	g.FillField("f", func(p vec.V3) float32 { return float32(p.X + 2*p.Y - p.Z) })
	return Tetrahedralize(g)
}

func TestTetrahedralizeCounts(t *testing.T) {
	g := NewStructuredGrid(4, 3, 3)
	g.FillField("f", func(p vec.V3) float32 { return float32(p.X) })
	u := Tetrahedralize(g)
	if u.Count() != g.Count() {
		t.Errorf("vertices = %d, want %d", u.Count(), g.Count())
	}
	if u.Cells() != g.Cells()*6 {
		t.Errorf("tets = %d, want %d", u.Cells(), g.Cells()*6)
	}
	if u.Kind() != KindUnstructuredGrid {
		t.Errorf("kind = %v", u.Kind())
	}
	if u.Bounds() != g.Bounds() {
		t.Errorf("bounds differ: %+v vs %+v", u.Bounds(), g.Bounds())
	}
	f, err := u.Field("f")
	if err != nil {
		t.Fatal(err)
	}
	src, _ := g.Field("f")
	for i := range f.Values {
		if f.Values[i] != src.Values[i] {
			t.Fatal("field not carried over")
		}
	}
}

func TestTetrahedralizeVolumePreserved(t *testing.T) {
	// The six tets of each cube must tile it exactly: total tet volume
	// equals the grid volume.
	g := NewStructuredGrid(4, 4, 4)
	g.Spacing = vec.New(0.5, 1, 2)
	u := Tetrahedralize(g)
	total := 0.0
	for i := range u.Tets {
		total += tetVolume(u, i)
	}
	want := g.Bounds().Size().X * g.Bounds().Size().Y * g.Bounds().Size().Z
	if math.Abs(total-want) > 1e-9*want {
		t.Errorf("tet volume sum %v != box volume %v", total, want)
	}
}

func tetVolume(u *UnstructuredGrid, i int) float64 {
	tet := u.Tets[i]
	a := u.Points[tet[1]].Sub(u.Points[tet[0]])
	b := u.Points[tet[2]].Sub(u.Points[tet[0]])
	c := u.Points[tet[3]].Sub(u.Points[tet[0]])
	return math.Abs(a.Cross(b).Dot(c)) / 6
}

func TestUnstructuredFieldManagement(t *testing.T) {
	u := tetTestGrid()
	u.Fields = append(u.Fields, Field{Name: "extra", Values: make([]float32, u.Count())})
	if _, err := u.Field("extra"); err != nil {
		t.Error(err)
	}
	if _, err := u.Field("missing"); err == nil {
		t.Error("missing field found")
	}
	if u.Bytes() <= 0 {
		t.Error("no bytes reported")
	}
}

func TestUnstructuredPartition(t *testing.T) {
	u := tetTestGrid()
	for _, n := range []int{1, 2, 3, 5} {
		pieces := u.Partition(n)
		if n == 1 {
			if len(pieces) != 1 || pieces[0] != Dataset(u) {
				t.Fatal("Partition(1) should return self")
			}
			continue
		}
		if len(pieces) != n {
			t.Fatalf("pieces = %d", len(pieces))
		}
		totalTets := 0
		totalVolume := 0.0
		for _, piece := range pieces {
			pu := piece.(*UnstructuredGrid)
			totalTets += pu.Cells()
			for i := range pu.Tets {
				totalVolume += tetVolume(pu, i)
			}
			// Every piece's fields must be self-consistent.
			if f, err := pu.Field("f"); err != nil || len(f.Values) != pu.Count() {
				t.Fatalf("piece field broken: %v", err)
			}
			// All indices in range.
			for _, tet := range pu.Tets {
				for _, v := range tet {
					if v < 0 || int(v) >= pu.Count() {
						t.Fatal("dangling vertex index")
					}
				}
			}
		}
		if totalTets != u.Cells() {
			t.Errorf("partition lost cells: %d of %d", totalTets, u.Cells())
		}
		want := u.Bounds().Size().X * u.Bounds().Size().Y * u.Bounds().Size().Z
		if math.Abs(totalVolume-want) > 1e-9*want {
			t.Errorf("partition volume %v != %v", totalVolume, want)
		}
	}
}

func TestUnstructuredPartitionFieldValuesMatch(t *testing.T) {
	// Field values must follow vertices through the remap: check that the
	// analytic field holds at every piece vertex.
	u := tetTestGrid()
	for _, piece := range u.Partition(3) {
		pu := piece.(*UnstructuredGrid)
		f, _ := pu.Field("f")
		for i, p := range pu.Points {
			want := float32(p.X + 2*p.Y - p.Z)
			if math.Abs(float64(f.Values[i]-want)) > 1e-5 {
				t.Fatalf("vertex %d: field %v, want %v", i, f.Values[i], want)
			}
		}
	}
}

func TestUnstructuredCentroid(t *testing.T) {
	u := &UnstructuredGrid{
		Points: []vec.V3{{}, {X: 1}, {Y: 1}, {Z: 1}},
		Tets:   [][4]int32{{0, 1, 2, 3}},
	}
	want := vec.New(0.25, 0.25, 0.25)
	if got := u.CellCentroid(0); got.Sub(want).Len() > 1e-12 {
		t.Errorf("centroid = %v", got)
	}
}
