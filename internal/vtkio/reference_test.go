package vtkio

// The streaming decoder Decode replaced, kept as a test-only reference:
// FuzzDecodeMatchesReference holds Decode to it, input for input. It
// reads through a buffered reader and converts each bulk array through a
// fixed chunk, growing arrays chunk by chunk so memory stays bounded by
// the bytes the stream delivers.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Conversion chunk geometry of the streaming decoder.
const (
	refChunkBytes = 1 << 18
	refChunkF32   = refChunkBytes / 4
	refChunkI64   = refChunkBytes / 8
)

// refDecoder is the streaming read-side state.
type refDecoder struct {
	br    *bufio.Reader
	tmp   [8]byte
	chunk []byte
}

func (d *refDecoder) u8() (uint8, error) { return d.br.ReadByte() }

func (d *refDecoder) u16() (uint16, error) {
	if _, err := io.ReadFull(d.br, d.tmp[:2]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(d.tmp[:2]), nil
}

func (d *refDecoder) u32() (uint32, error) {
	if _, err := io.ReadFull(d.br, d.tmp[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(d.tmp[:4]), nil
}

func (d *refDecoder) u64() (uint64, error) {
	if _, err := io.ReadFull(d.br, d.tmp[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(d.tmp[:8]), nil
}

func (d *refDecoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

// referenceReadInto is the streaming ReadInto that Decode replaced: it
// decodes from r through a buffered reader and a 256 KiB conversion
// chunk, reusing prev's arrays under the same rules as Decode.
func referenceReadInto(r io.Reader, prev data.Dataset) (data.Dataset, error) {
	d := &refDecoder{br: bufio.NewReader(r), chunk: make([]byte, refChunkBytes)}
	return d.read(prev)
}

func (d *refDecoder) read(prev data.Dataset) (data.Dataset, error) {
	if _, err := io.ReadFull(d.br, d.tmp[:4]); err != nil {
		return nil, fmt.Errorf("vtkio: reading magic: %w", err)
	}
	if [4]byte(d.tmp[:4]) != magic {
		return nil, fmt.Errorf("%w: got % x", ErrBadMagic, d.tmp[:4])
	}
	ver, err := d.u16()
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	kind, err := d.u8()
	if err != nil {
		return nil, err
	}
	switch data.Kind(kind) {
	case data.KindPointCloud:
		p, _ := prev.(*data.PointCloud)
		return d.readPointCloud(p)
	case data.KindStructuredGrid:
		g, _ := prev.(*data.StructuredGrid)
		return d.readGrid(g)
	case data.KindUnstructuredGrid:
		u, _ := prev.(*data.UnstructuredGrid)
		return d.readUnstructured(u)
	default:
		return nil, fmt.Errorf("vtkio: unknown dataset kind %d", kind)
	}
}

func (d *refDecoder) readPointCloud(prev *data.PointCloud) (*data.PointCloud, error) {
	n, err := d.u64()
	if err != nil {
		return nil, err
	}
	if n > maxReasonable {
		return nil, fmt.Errorf("vtkio: implausible particle count %d", n)
	}
	flags, err := d.u8()
	if err != nil {
		return nil, err
	}
	if flags&^(cloudIDs|cloudVelocities) != 0 {
		return nil, fmt.Errorf("vtkio: unknown cloud flags %#02x", flags)
	}
	ids, vels := 0, 0
	if flags&cloudIDs != 0 {
		ids = int(n)
	}
	if flags&cloudVelocities != 0 {
		vels = int(n)
	}
	p := prev
	if p == nil {
		p = &data.PointCloud{}
	}
	if p.IDs, err = d.int64s(p.IDs[:0], ids); err != nil {
		return nil, err
	}
	for _, dst := range [...]*[]float32{&p.X, &p.Y, &p.Z} {
		if *dst, err = d.float32s((*dst)[:0], int(n)); err != nil {
			return nil, err
		}
	}
	for _, dst := range [...]*[]float32{&p.VX, &p.VY, &p.VZ} {
		if *dst, err = d.float32s((*dst)[:0], vels); err != nil {
			return nil, err
		}
	}
	fields, err := d.readFields(p.Fields, p.Count())
	if err != nil {
		return nil, err
	}
	p.Fields = fields
	// The reuse path overwrites positions in place, so the lazy bounds
	// cache of the previous step must not survive.
	p.InvalidateBounds()
	return p, nil
}

func (d *refDecoder) readGrid(prev *data.StructuredGrid) (*data.StructuredGrid, error) {
	var hdr [3]uint64
	for i := range hdr {
		v, err := d.u64()
		if err != nil {
			return nil, err
		}
		if v > maxReasonable {
			return nil, fmt.Errorf("vtkio: implausible grid dimension %d", v)
		}
		hdr[i] = v
	}
	// Guard the vertex-count product stepwise with divisions: a plain
	// hdr[0]*hdr[1]*hdr[2] overflows uint64 for dimensions that each pass
	// the per-axis check, wraps to a small number, and slips through.
	if hdr[0] > 0 && hdr[1] > 0 {
		if hdr[1] > maxReasonable/hdr[0] || (hdr[2] > 0 && hdr[2] > maxReasonable/(hdr[0]*hdr[1])) {
			return nil, fmt.Errorf("vtkio: implausible grid size %dx%dx%d", hdr[0], hdr[1], hdr[2])
		}
	}
	g := prev
	if g == nil || g.NX != int(hdr[0]) || g.NY != int(hdr[1]) || g.NZ != int(hdr[2]) {
		g = data.NewStructuredGrid(int(hdr[0]), int(hdr[1]), int(hdr[2]))
	}
	var geo [6]float64
	for i := range geo {
		v, err := d.f64()
		if err != nil {
			return nil, err
		}
		geo[i] = v
	}
	g.Origin = vec.New(geo[0], geo[1], geo[2])
	g.Spacing = vec.New(geo[3], geo[4], geo[5])
	fields, err := d.readFields(g.Fields, g.Count())
	if err != nil {
		return nil, err
	}
	g.Fields = fields
	return g, nil
}

// readFields decodes the field table, recycling prev's entries: a field
// whose name matches the previous step's field at the same index keeps
// its name string, and its value array is reused whenever its capacity
// suffices.
func (d *refDecoder) readFields(prev []data.Field, expect int) ([]data.Field, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("vtkio: implausible field count %d", n)
	}
	fields := prev[:0]
	if fields == nil || cap(fields) < int(n) {
		fields = make([]data.Field, 0, n)
	}
	for i := 0; i < int(n); i++ {
		// Save the previous entry before append overwrites its slot (prev
		// and fields share a backing array on the reuse path).
		var old data.Field
		if i < len(prev) {
			old = prev[i]
		}
		nameLen, err := d.u16()
		if err != nil {
			return nil, err
		}
		nameBytes := d.chunk[:nameLen]
		if _, err := io.ReadFull(d.br, nameBytes); err != nil {
			return nil, err
		}
		name := old.Name
		if string(nameBytes) != old.Name { // comparison does not allocate
			name = string(nameBytes)
		}
		count, err := d.u64()
		if err != nil {
			return nil, err
		}
		if count != uint64(expect) {
			return nil, fmt.Errorf("vtkio: field %q has %d values, dataset expects %d", name, count, expect)
		}
		vals, err := d.float32s(old.Values[:0], int(count))
		if err != nil {
			return nil, err
		}
		fields = append(fields, data.Field{Name: name, Values: vals})
	}
	return fields, nil
}

// float32s reads n float32 values into dst. When dst's capacity covers n
// the values are decoded in place with zero allocation; otherwise the
// result grows chunk by chunk so memory use is bounded by the bytes the
// stream actually delivers (plus one chunk) rather than by an untrusted
// header count.
func (d *refDecoder) float32s(dst []float32, n int) ([]float32, error) {
	if n == 0 {
		if dst == nil {
			return []float32{}, nil // keep round trips non-nil, like make(_, 0)
		}
		return dst[:0], nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
		for off := 0; off < n; {
			c := min(n-off, refChunkF32)
			if _, err := io.ReadFull(d.br, d.chunk[:c*4]); err != nil {
				return nil, err
			}
			for i := 0; i < c; i++ {
				dst[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(d.chunk[i*4:]))
			}
			off += c
		}
		return dst, nil
	}
	dst = dst[:0]
	if cap(dst) == 0 {
		dst = make([]float32, 0, min(n, refChunkF32))
	}
	for len(dst) < n {
		c := min(n-len(dst), refChunkF32)
		if _, err := io.ReadFull(d.br, d.chunk[:c*4]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(d.chunk[i*4:])))
		}
	}
	return dst, nil
}

// int64s reads n int64 values with the same reuse/incremental policy as
// float32s.
func (d *refDecoder) int64s(dst []int64, n int) ([]int64, error) {
	if n == 0 {
		if dst == nil {
			return []int64{}, nil
		}
		return dst[:0], nil
	}
	if cap(dst) >= n {
		dst = dst[:n]
		for off := 0; off < n; {
			c := min(n-off, refChunkI64)
			if _, err := io.ReadFull(d.br, d.chunk[:c*8]); err != nil {
				return nil, err
			}
			for i := 0; i < c; i++ {
				dst[off+i] = int64(binary.LittleEndian.Uint64(d.chunk[i*8:]))
			}
			off += c
		}
		return dst, nil
	}
	dst = dst[:0]
	if cap(dst) == 0 {
		dst = make([]int64, 0, min(n, refChunkI64))
	}
	for len(dst) < n {
		c := min(n-len(dst), refChunkI64)
		if _, err := io.ReadFull(d.br, d.chunk[:c*8]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			dst = append(dst, int64(binary.LittleEndian.Uint64(d.chunk[i*8:])))
		}
	}
	return dst, nil
}

func (d *refDecoder) readUnstructured(prev *data.UnstructuredGrid) (*data.UnstructuredGrid, error) {
	nPtsU, err := d.u64()
	if err != nil {
		return nil, err
	}
	nTetsU, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nPtsU > maxReasonable || nTetsU > maxReasonable {
		return nil, fmt.Errorf("vtkio: implausible unstructured sizes %d points, %d tets", nPtsU, nTetsU)
	}
	nPts, nTets := int(nPtsU), int(nTetsU)
	u := prev
	if u == nil {
		u = &data.UnstructuredGrid{}
	}

	// Coordinates, 12 bytes per point, streamed through the chunk. On the
	// reuse path points land in place; otherwise the slice grows chunk by
	// chunk, bounded by delivered bytes.
	const ptsPerChunk = refChunkBytes / 12
	pts := u.Points[:0]
	inPlace := nPts > 0 && cap(pts) >= nPts
	if inPlace {
		pts = pts[:nPts]
	} else if cap(pts) == 0 {
		pts = make([]vec.V3, 0, min(nPts, ptsPerChunk))
	}
	for off := 0; off < nPts; {
		c := min(nPts-off, ptsPerChunk)
		if _, err := io.ReadFull(d.br, d.chunk[:c*12]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			p := vec.New(
				float64(math.Float32frombits(binary.LittleEndian.Uint32(d.chunk[i*12:]))),
				float64(math.Float32frombits(binary.LittleEndian.Uint32(d.chunk[i*12+4:]))),
				float64(math.Float32frombits(binary.LittleEndian.Uint32(d.chunk[i*12+8:]))),
			)
			if inPlace {
				pts[off+i] = p
			} else {
				pts = append(pts, p)
			}
		}
		off += c
	}
	u.Points = pts

	// Tetrahedra, 16 bytes per cell, vertex indices validated as they land.
	const tetsPerChunk = refChunkBytes / 16
	tets := u.Tets[:0]
	tetsInPlace := nTets > 0 && cap(tets) >= nTets
	if tetsInPlace {
		tets = tets[:nTets]
	} else if cap(tets) == 0 {
		tets = make([][4]int32, 0, min(nTets, tetsPerChunk))
	}
	for off := 0; off < nTets; {
		c := min(nTets-off, tetsPerChunk)
		if _, err := io.ReadFull(d.br, d.chunk[:c*16]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			var t [4]int32
			for v := 0; v < 4; v++ {
				raw := binary.LittleEndian.Uint32(d.chunk[16*i+4*v:])
				if uint64(raw) >= uint64(nPts) {
					return nil, fmt.Errorf("vtkio: tet %d references vertex %d of %d", off+i, raw, nPts)
				}
				t[v] = int32(raw)
			}
			if tetsInPlace {
				tets[off+i] = t
			} else {
				tets = append(tets, t)
			}
		}
		off += c
	}
	u.Tets = tets

	fields, err := d.readFields(u.Fields, nPts)
	if err != nil {
		return nil, err
	}
	u.Fields = fields
	u.InvalidateBounds()
	return u, nil
}
