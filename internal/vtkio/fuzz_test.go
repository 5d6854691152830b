package vtkio

import (
	"bytes"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
)

// FuzzReadVTK feeds arbitrary bytes to Read. The corpus is seeded with
// round-tripped containers of all three dataset kinds plus truncations,
// so the mutator starts from structurally valid streams and corrupts
// headers, counts, and payloads from there. Read must never panic or
// allocate unboundedly; any successfully parsed dataset must survive a
// write/read round trip.
func FuzzReadVTK(f *testing.F) {
	seed := func(ds data.Dataset) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	cloud := seed(sampleCloud(17, 1))
	grid := seed(sampleGrid())
	unstr := seed(data.Tetrahedralize(sampleGrid()))
	for _, b := range [][]byte{cloud, grid, unstr} {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:7]) // magic + version + kind, nothing else
	}
	for flags := uint8(0); flags < 4; flags++ { // every subset of a cloud's optional arrays
		f.Add(seed(cloudWith(17, 1, flags)))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		ds, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			t.Fatalf("re-encoding accepted dataset: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own output: %v", err)
		}
		if back.Kind() != ds.Kind() || back.Count() != ds.Count() {
			t.Fatalf("round trip changed shape: %v/%d vs %v/%d",
				ds.Kind(), ds.Count(), back.Kind(), back.Count())
		}
		// Compare serialized forms, not the in-memory structs: byte
		// equality is exact under NaN payloads (where reflect.DeepEqual
		// reports NaN != NaN) and ignores nil-versus-empty slices.
		var buf2 bytes.Buffer
		if err := Write(&buf2, back); err != nil {
			t.Fatalf("re-encoding twice: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("round trip changed serialized contents")
		}
	})
}

// FuzzDecodeMatchesReference holds Decode to the streaming decoder it
// replaced (reference_test.go): both accept exactly the same inputs, and
// an accepted input decodes to the same dataset, compared by its Append
// bytes (exact under NaN payloads). Each input is decoded fresh and into
// a previous dataset of every kind, so the reuse paths — in place, grown
// and of a mismatched kind — are held to the reference too.
func FuzzDecodeMatchesReference(f *testing.F) {
	encode := func(ds data.Dataset) []byte {
		b, err := Append(nil, ds)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	kinds := [][]byte{
		encode(sampleCloud(17, 1)),
		encode(sampleGrid()),
		encode(data.Tetrahedralize(sampleGrid())),
	}
	for _, b := range kinds {
		f.Add(b)
		f.Add(b[:len(b)/2])
		f.Add(b[:7])
	}
	f.Add(encode(sampleCloud(40, 2))) // grows a reused 17-particle cloud
	for flags := uint8(0); flags < 4; flags++ {
		f.Add(encode(cloudWith(17, 3, flags)))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		for k := -1; k < len(kinds); k++ {
			// Each decoder gets its own copy of the previous dataset: both
			// write into it.
			prev := func() data.Dataset {
				if k < 0 {
					return nil
				}
				ds, err := Decode(kinds[k], nil)
				if err != nil {
					t.Fatal(err)
				}
				return ds
			}
			want, werr := referenceReadInto(bytes.NewReader(in), prev())
			got, gerr := Decode(in, prev())
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("prev kind %d: reference err = %v, Decode err = %v", k, werr, gerr)
			}
			if werr != nil {
				continue
			}
			wb, err := Append(nil, want)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := Append(nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb, gb) {
				t.Fatalf("prev kind %d: Decode and the reference decoded different datasets", k)
			}
		}
	})
}
