// Package vtkio implements ETH's on-disk dataset container, the stand-in
// for the VTK files the paper requires users to export their simulation
// data as (§III-B: "our design requires that the data is exported as VTK
// data objects"). The format ("ETHD") is a little-endian, self-describing
// binary container that round-trips both data model types exactly. It is
// also the wire format the transport layer streams between proxies, so a
// dataset written by the simulation proxy can be replayed byte-identically
// by the visualization proxy.
//
// Layout (all integers little-endian):
//
//	magic   [4]byte  "ETHD"
//	version uint16   (currently 2; any other version is refused)
//	kind    uint8    data.Kind
//	  -- kind-specific header and payload; a point cloud's is:
//	  count   uint64
//	  flags   uint8    bit 0: IDs present, bit 1: velocities present;
//	                   any other bit is refused
//	  IDs     count int64 values, when present
//	  X, Y, Z count float32 values each
//	  VX, VY, VZ count float32 values each, when present
//	fields  uint32 count, then per field:
//	  nameLen uint16, name bytes, valueCount uint64, float32 values
//
// Version 1 had no flags byte and always carried IDs and velocities; a
// version 1 container gets ErrBadVersion, so dumps written by a build
// before version 2 must be regenerated.
//
// The codec works on byte slices. Append converts each array straight
// into the destination slice and Decode converts straight out of the
// source slice, so each dataset byte is converted once per side with no
// staging buffer in between. Decode checks every count a header
// announces against the bytes left before it slices or allocates, so a
// corrupt header cannot make it allocate more than its input implies.
// Append into a buffer with room, and Decode into the previous step's
// dataset when the shapes match, allocate nothing — the steady state of
// a simulation replaying fixed-size steps.
package vtkio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vec"
)

var (
	magic = [4]byte{'E', 'T', 'H', 'D'}

	// ErrBadMagic is returned when the stream does not start with the
	// container magic.
	ErrBadMagic = errors.New("vtkio: bad magic (not an ETHD container)")
	// ErrBadVersion is returned for unsupported container versions.
	ErrBadVersion = errors.New("vtkio: unsupported container version")
)

const version = 2

// Cloud flags: the optional arrays a point cloud's encoding carries.
const (
	cloudIDs        = 1 << 0
	cloudVelocities = 1 << 1
)

// maxReasonable bounds a structured grid's vertex count. Its fields are
// checked against the bytes left like every other array, but a grid with
// no fields carries no bytes per vertex to check against.
const maxReasonable = 1 << 33 // 8 Gi elements

// ---- encoder ----

// Append appends the container encoding of ds to dst and returns the
// extended slice. It grows dst once, with append's headroom, so a buffer
// reused across steps of slowly varying size settles without
// reallocating; on error dst is returned unchanged. A cloud's IDs and
// velocities are encoded when they are not empty; every array that is
// encoded, fields included, must hold one value per element.
func Append(dst []byte, ds data.Dataset) ([]byte, error) {
	n, err := encodedLen(ds)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, version)
	dst = append(dst, uint8(ds.Kind()))
	var fields []data.Field
	switch d := ds.(type) {
	case *data.PointCloud:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Count()))
		dst = append(dst, cloudFlags(d))
		// An absent array is empty and appends nothing.
		dst = appendI64s(dst, d.IDs)
		for _, arr := range [...][]float32{d.X, d.Y, d.Z, d.VX, d.VY, d.VZ} {
			dst = appendF32s(dst, arr)
		}
		fields = d.Fields
	case *data.StructuredGrid:
		for _, v := range [...]int{d.NX, d.NY, d.NZ} {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		for _, v := range [...]float64{
			d.Origin.X, d.Origin.Y, d.Origin.Z,
			d.Spacing.X, d.Spacing.Y, d.Spacing.Z,
		} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
		fields = d.Fields
	case *data.UnstructuredGrid:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(d.Points)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(d.Tets)))
		var b []byte
		dst, b = extend(dst, 12*len(d.Points))
		for i, p := range d.Points {
			s := b[12*i : 12*i+12 : 12*i+12]
			binary.LittleEndian.PutUint32(s[0:], math.Float32bits(float32(p.X)))
			binary.LittleEndian.PutUint32(s[4:], math.Float32bits(float32(p.Y)))
			binary.LittleEndian.PutUint32(s[8:], math.Float32bits(float32(p.Z)))
		}
		dst, b = extend(dst, 16*len(d.Tets))
		for i, t := range d.Tets {
			s := b[16*i : 16*i+16 : 16*i+16]
			for v := 0; v < 4; v++ {
				binary.LittleEndian.PutUint32(s[4*v:], uint32(t[v]))
			}
		}
		fields = d.Fields
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(fields)))
	for _, f := range fields {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(len(f.Values)))
		dst = appendF32s(dst, f.Values)
	}
	return dst, nil
}

// encodedLen is the length of ds's encoding, or the reason it has none.
func encodedLen(ds data.Dataset) (int, error) {
	n := len(magic) + 2 + 1 + 4 // magic, version, kind, field count
	var fields []data.Field
	count := ds.Count()
	switch d := ds.(type) {
	case *data.PointCloud:
		if err := checkCloud(d); err != nil {
			return 0, err
		}
		n += 8 + 1 + 8*len(d.IDs)
		for _, arr := range [...][]float32{d.X, d.Y, d.Z, d.VX, d.VY, d.VZ} {
			n += 4 * len(arr)
		}
		fields = d.Fields
	case *data.StructuredGrid:
		n += 3*8 + 6*8
		fields = d.Fields
	case *data.UnstructuredGrid:
		n += 2*8 + 12*len(d.Points) + 16*len(d.Tets)
		fields = d.Fields
	default:
		return 0, fmt.Errorf("vtkio: unsupported dataset type %T", ds)
	}
	for _, f := range fields {
		if len(f.Name) > math.MaxUint16 {
			return 0, fmt.Errorf("vtkio: field name too long (%d bytes)", len(f.Name))
		}
		if len(f.Values) != count {
			return 0, fmt.Errorf("vtkio: field %q has %d values, dataset has %d elements", f.Name, len(f.Values), count)
		}
		n += 2 + len(f.Name) + 8 + 4*len(f.Values)
	}
	return n, nil
}

// cloudFlags reports which optional arrays p carries: those not empty.
func cloudFlags(p *data.PointCloud) uint8 {
	var flags uint8
	if len(p.IDs) != 0 {
		flags |= cloudIDs
	}
	if len(p.VX)+len(p.VY)+len(p.VZ) != 0 {
		flags |= cloudVelocities
	}
	return flags
}

// checkCloud refuses a cloud with an array the header cannot describe: a
// position array, or a present optional one, whose length is not the
// particle count.
func checkCloud(p *data.PointCloud) error {
	n, vel := len(p.X), cloudFlags(p)&cloudVelocities != 0
	for _, a := range [...]struct {
		name     string
		len      int
		required bool
	}{
		{"IDs", len(p.IDs), false},
		{"Y", len(p.Y), true}, {"Z", len(p.Z), true},
		{"VX", len(p.VX), vel}, {"VY", len(p.VY), vel}, {"VZ", len(p.VZ), vel},
	} {
		if a.len != n && (a.required || a.len != 0) {
			return fmt.Errorf("vtkio: cloud array %s has %d values for %d particles", a.name, a.len, n)
		}
	}
	return nil
}

// extend lengthens b by n bytes and returns it with the new tail.
func extend(b []byte, n int) (all, tail []byte) {
	l := len(b)
	b = slices.Grow(b, n)[:l+n]
	return b, b[l:]
}

// appendF32s appends vals little-endian, four values per iteration.
func appendF32s(dst []byte, vals []float32) []byte {
	dst, b := extend(dst, 4*len(vals))
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		v := vals[i : i+4 : i+4]
		s := b[4*i : 4*i+16 : 4*i+16]
		binary.LittleEndian.PutUint32(s[0:], math.Float32bits(v[0]))
		binary.LittleEndian.PutUint32(s[4:], math.Float32bits(v[1]))
		binary.LittleEndian.PutUint32(s[8:], math.Float32bits(v[2]))
		binary.LittleEndian.PutUint32(s[12:], math.Float32bits(v[3]))
	}
	for ; i < len(vals); i++ {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(vals[i]))
	}
	return dst
}

// appendI64s appends vals little-endian, four values per iteration.
func appendI64s(dst []byte, vals []int64) []byte {
	dst, b := extend(dst, 8*len(vals))
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		v := vals[i : i+4 : i+4]
		s := b[8*i : 8*i+32 : 8*i+32]
		binary.LittleEndian.PutUint64(s[0:], uint64(v[0]))
		binary.LittleEndian.PutUint64(s[8:], uint64(v[1]))
		binary.LittleEndian.PutUint64(s[16:], uint64(v[2]))
		binary.LittleEndian.PutUint64(s[24:], uint64(v[3]))
	}
	for ; i < len(vals); i++ {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(vals[i]))
	}
	return dst
}

// ---- decoder ----

// Decode decodes the container at the start of b; bytes after it are
// ignored. It reuses prev's arrays when prev is non-nil and of the same
// kind: each array whose capacity covers its decoded length is
// overwritten in place, a field whose name matches the previous one at
// its index keeps its name string, and anything too small grows with
// append's headroom. A shape-stable stream of steps therefore decodes
// every step after the first without allocating.
//
// On success the returned dataset may be prev itself, mutated in place —
// the caller must treat prev as invalid (aliased) afterwards. On error
// prev is also invalid: it may have been partially overwritten.
func Decode(b []byte, prev data.Dataset) (data.Dataset, error) {
	d := decoder{b: b}
	if m := d.take(4, 1); d.err != nil {
		return nil, fmt.Errorf("vtkio: reading magic: %w", d.err)
	} else if [4]byte(m) != magic {
		return nil, fmt.Errorf("%w: got % x", ErrBadMagic, m)
	}
	if ver := d.u16(); d.err == nil && ver != version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	kind := d.take(1, 1)
	if d.err != nil {
		return nil, d.err
	}
	var ds data.Dataset
	switch data.Kind(kind[0]) {
	case data.KindPointCloud:
		p, _ := prev.(*data.PointCloud)
		ds = d.pointCloud(p)
	case data.KindStructuredGrid:
		g, _ := prev.(*data.StructuredGrid)
		ds = d.grid(g)
	case data.KindUnstructuredGrid:
		u, _ := prev.(*data.UnstructuredGrid)
		ds = d.unstructured(u)
	default:
		return nil, fmt.Errorf("vtkio: unknown dataset kind %d", kind[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	return ds, nil
}

// decoder walks a container slice. Its first error sticks: every later
// read returns zero values and the error surfaces from Decode.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes n values of size bytes each, failing — before anything
// is sliced or allocated for them — when fewer bytes are left.
func (d *decoder) take(n, size uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b))/size {
		d.fail("vtkio: %d values of %d bytes announced, %d bytes left: %w", n, size, len(d.b), io.ErrUnexpectedEOF)
		return nil
	}
	p := d.b[: n*size : n*size]
	d.b = d.b[n*size:]
	return p
}

func (d *decoder) u8() uint8 {
	if p := d.take(1, 1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u16() uint16 {
	if p := d.take(1, 2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if p := d.take(1, 4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if p := d.take(1, 8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// resize returns s with length n, in place when its capacity covers n,
// else grown as append grows it. A nil s yields a non-nil slice, so an
// empty array round-trips as empty, not nil.
func resize[T any](s []T, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	if cap(s) >= n {
		return s[:n]
	}
	return slices.Grow(s[:0], n)[:n]
}

// f32s decodes n float32 values into dst's array (see resize), four
// values per iteration.
func (d *decoder) f32s(dst []float32, n uint64) []float32 {
	src := d.take(n, 4)
	if d.err != nil {
		return dst
	}
	dst = resize(dst, int(n))
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		v := dst[i : i+4 : i+4]
		s := src[4*i : 4*i+16 : 4*i+16]
		v[0] = math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))
		v[1] = math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))
		v[2] = math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))
		v[3] = math.Float32frombits(binary.LittleEndian.Uint32(s[12:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return dst
}

// i64s is f32s for int64 values.
func (d *decoder) i64s(dst []int64, n uint64) []int64 {
	src := d.take(n, 8)
	if d.err != nil {
		return dst
	}
	dst = resize(dst, int(n))
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		v := dst[i : i+4 : i+4]
		s := src[8*i : 8*i+32 : 8*i+32]
		v[0] = int64(binary.LittleEndian.Uint64(s[0:]))
		v[1] = int64(binary.LittleEndian.Uint64(s[8:]))
		v[2] = int64(binary.LittleEndian.Uint64(s[16:]))
		v[3] = int64(binary.LittleEndian.Uint64(s[24:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}

func (d *decoder) pointCloud(p *data.PointCloud) *data.PointCloud {
	if p == nil {
		p = &data.PointCloud{}
	}
	n, flags := d.u64(), d.u8()
	if flags&^(cloudIDs|cloudVelocities) != 0 {
		d.fail("vtkio: unknown cloud flags %#02x", flags)
	}
	// An absent array decodes as empty, keeping its capacity.
	ids, vels := uint64(0), uint64(0)
	if flags&cloudIDs != 0 {
		ids = n
	}
	if flags&cloudVelocities != 0 {
		vels = n
	}
	p.IDs = d.i64s(p.IDs, ids)
	for _, arr := range [...]*[]float32{&p.X, &p.Y, &p.Z} {
		*arr = d.f32s(*arr, n)
	}
	for _, arr := range [...]*[]float32{&p.VX, &p.VY, &p.VZ} {
		*arr = d.f32s(*arr, vels)
	}
	p.Fields = d.fields(p.Fields, n)
	// The reuse path overwrites positions in place, so the lazy bounds
	// cache of the previous step must not survive.
	p.InvalidateBounds()
	return p
}

func (d *decoder) grid(g *data.StructuredGrid) *data.StructuredGrid {
	nx, ny, nz := d.u64(), d.u64(), d.u64()
	// Guard the vertex-count product stepwise with divisions: a plain
	// nx*ny*nz overflows uint64 for dimensions that each pass the per-axis
	// check, wraps to a small number, and slips through.
	if nx > maxReasonable || ny > maxReasonable || nz > maxReasonable ||
		(nx > 0 && ny > 0 && (ny > maxReasonable/nx || (nz > 0 && nz > maxReasonable/(nx*ny)))) {
		d.fail("vtkio: implausible grid size %dx%dx%d", nx, ny, nz)
	}
	if d.err != nil {
		return nil
	}
	if g == nil || g.NX != int(nx) || g.NY != int(ny) || g.NZ != int(nz) {
		g = data.NewStructuredGrid(int(nx), int(ny), int(nz))
	}
	var geo [6]float64
	for i := range geo {
		geo[i] = math.Float64frombits(d.u64())
	}
	g.Origin = vec.New(geo[0], geo[1], geo[2])
	g.Spacing = vec.New(geo[3], geo[4], geo[5])
	g.Fields = d.fields(g.Fields, uint64(g.Count()))
	return g
}

func (d *decoder) unstructured(u *data.UnstructuredGrid) *data.UnstructuredGrid {
	if u == nil {
		u = &data.UnstructuredGrid{}
	}
	nPts, nTets := d.u64(), d.u64()
	src := d.take(nPts, 12)
	if d.err != nil {
		return nil
	}
	u.Points = resize(u.Points, int(nPts))
	for i := range u.Points {
		s := src[12*i : 12*i+12 : 12*i+12]
		u.Points[i] = vec.New(
			float64(math.Float32frombits(binary.LittleEndian.Uint32(s[0:]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(s[4:]))),
			float64(math.Float32frombits(binary.LittleEndian.Uint32(s[8:]))),
		)
	}
	src = d.take(nTets, 16)
	if d.err != nil {
		return nil
	}
	// Vertex indices are validated as they land.
	u.Tets = resize(u.Tets, int(nTets))
	for i := range u.Tets {
		s := src[16*i : 16*i+16 : 16*i+16]
		for v := 0; v < 4; v++ {
			raw := binary.LittleEndian.Uint32(s[4*v:])
			if uint64(raw) >= nPts {
				d.fail("vtkio: tet %d references vertex %d of %d", i, raw, nPts)
				return nil
			}
			u.Tets[i][v] = int32(raw)
		}
	}
	u.Fields = d.fields(u.Fields, nPts)
	u.InvalidateBounds()
	return u
}

// fields decodes the field table into prev's entries (see Decode); every
// field must carry exactly expect values.
func (d *decoder) fields(prev []data.Field, expect uint64) []data.Field {
	n := d.u32()
	switch {
	case d.err != nil:
		return nil
	case n > 1<<16:
		d.fail("vtkio: implausible field count %d", n)
		return nil
	case uint64(n) > uint64(len(d.b))/(2+8): // each field's name length and value count
		d.fail("vtkio: %d fields announced, %d bytes left: %w", n, len(d.b), io.ErrUnexpectedEOF)
		return nil
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
		nameBytes := d.take(uint64(d.u16()), 1)
		count := d.u64()
		if d.err != nil {
			return nil
		}
		name := old.Name
		if string(nameBytes) != old.Name { // comparison does not allocate
			name = string(nameBytes)
		}
		if count != expect {
			d.fail("vtkio: field %q has %d values, dataset expects %d", name, count, expect)
			return nil
		}
		fields = append(fields, data.Field{Name: name, Values: d.f32s(old.Values, count)})
	}
	return fields
}

// ---- streams and files ----

// Write writes ds's container encoding to w.
func Write(w io.Writer, ds data.Dataset) error {
	b, err := Append(nil, ds)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Read reads r to EOF and decodes the container at its start.
func Read(r io.Reader) (data.Dataset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return Decode(b, nil)
}

// WriteFile writes ds to the named file, creating or truncating it.
func WriteFile(path string, ds data.Dataset) error {
	b, err := Append(nil, ds)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o666)
}

// ReadFile reads a dataset from the named file.
func ReadFile(path string) (data.Dataset, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b, nil)
}
