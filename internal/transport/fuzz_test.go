package transport

// FuzzFrameFlip is the wire-format integrity fuzzer, extended to wire
// format v3: for every codec a two-frame stream is encoded once (for the
// temporal codecs that is a keyframe followed by a genuine delta frame),
// then the fuzzer flips an arbitrary byte with an arbitrary mask. A zero
// mask must round-trip the whole stream cleanly — bit-exact datasets,
// correct steps. Any non-zero flip — type byte, length, step, the v3
// codec ID byte, payload, or trailer — must be detected: no Recv may
// ever return a dataset that differs from what was sent. CRC32C covers
// the header (codec byte included) and payload, so a flipped codec byte
// surfaces as ErrChecksum rather than a frame decoded under the wrong
// codec; a survivor here is a real hole in the framing. Two more streams
// carry the same steps under the retired v2 framing (type bytes 1 and 4):
// Recv must refuse them with ErrCodecFrame from the 9-byte preamble
// alone — no payload byte buffered, never a panic — flipped or not.
//
// FuzzDeltaRoundTrip attacks the temporal codecs from the other side:
// random shape-stable four-step streams (same particle count, each step
// either a coherent move of the last or a fresh draw) must survive the
// round trip bit-exact whichever codec each frame went out under, each
// frame's codec byte must be Choose's answer, and the delta codec's wire
// frames must stay length-preserving.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
)

// memConn adapts an in-memory byte stream to net.Conn: reads come from
// r, writes accumulate in w, deadlines are accepted and ignored.
type memConn struct {
	r *bytes.Reader
	w bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error) {
	if m.r == nil {
		return 0, net.ErrClosed
	}
	return m.r.Read(p)
}
func (m *memConn) Write(p []byte) (int, error)      { return m.w.Write(p) }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (m *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// encodeStream serializes the datasets as consecutive frames on one
// sending Conn under the given codec — so for temporal codecs the first
// frame is a keyframe and later frames carry real deltas — and returns
// each frame's bytes separately. Steps count from firstStep. It panics
// on error so it can run during fuzz-corpus construction.
func encodeStream(codec CodecID, firstStep int, steps ...data.Dataset) [][]byte {
	mc := &memConn{}
	c := NewConn(mc)
	c.SetCodec(codec)
	frames := make([][]byte, 0, len(steps))
	prev := 0
	for i, ds := range steps {
		c.Step = firstStep + i
		if err := c.SendDataset(ds); err != nil {
			panic(err)
		}
		all := mc.w.Bytes()
		frames = append(frames, append([]byte(nil), all[prev:]...))
		prev = len(all)
	}
	return frames
}

// cloudEqual compares the exported payload of two point clouds (the
// unexported bounds cache is lazily populated and irrelevant to the
// wire).
func cloudEqual(a, b *data.PointCloud) bool {
	return reflect.DeepEqual(a.IDs, b.IDs) &&
		reflect.DeepEqual(a.X, b.X) && reflect.DeepEqual(a.Y, b.Y) && reflect.DeepEqual(a.Z, b.Z) &&
		reflect.DeepEqual(a.VX, b.VX) && reflect.DeepEqual(a.VY, b.VY) && reflect.DeepEqual(a.VZ, b.VZ) &&
		reflect.DeepEqual(a.Fields, b.Fields)
}

// fuzzCloud builds an n-particle cloud with values drawn from rng.
func fuzzCloud(n int, rng *rand.Rand) *data.PointCloud {
	c := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		c.IDs[i] = int64(rng.Uint64())
		c.X[i] = float32(rng.NormFloat64())
		c.Y[i] = float32(rng.NormFloat64())
		c.Z[i] = float32(rng.NormFloat64())
		c.VX[i] = float32(rng.NormFloat64())
		c.VY[i] = float32(rng.NormFloat64())
		c.VZ[i] = float32(rng.NormFloat64())
	}
	c.SpeedField()
	return c
}

// coherentStep returns a copy of c with one slab of it moved: the second
// quarter of the particles drift in x by a small random step, and the
// rest of the payload is as it was — the way successive steps of a
// simulation change a snapshot, and the input delta+flate keeps its
// delta for.
func coherentStep(c *data.PointCloud, rng *rand.Rand) *data.PointCloud {
	all := make([]int, c.Count())
	for i := range all {
		all[i] = i
	}
	next := c.Select(all)
	for i := len(all) / 4; i < len(all)/2; i++ {
		next.X[i] += 1e-3 * float32(rng.NormFloat64())
	}
	return next
}

// flipStream is one precomputed two-frame fuzz stream: a codec's v3
// frames and the datasets they must decode to, or (wants == nil) frames
// under the retired v2 framing that must be refused.
type flipStream struct {
	frames [][]byte
	wants  []*data.PointCloud
}

// asV2 reframes a v3 raw or flate frame the way a pre-v3 sender put it
// on the wire: type byte 1 (raw) or 4 (flate), no codec byte, CRC32C over
// the 17-byte header and the payload.
func asV2(frame []byte) []byte {
	typ := MsgDataset
	if CodecID(frame[17]) == CodecFlate {
		typ = msgDatasetFlateV2
	}
	out := append([]byte{byte(typ)}, frame[1:17]...)
	out = append(out, frame[18:len(frame)-4]...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

// buildFlipStreams encodes the streams the flip fuzzer mutates: per
// codec (indexed by CodecID), two coherent shape-stable steps, so
// temporal codecs emit one keyframe and one genuine delta frame; then
// the raw and flate streams again under v2 framing.
func buildFlipStreams() []flipStream {
	rng := rand.New(rand.NewSource(42))
	s1 := fuzzCloud(200, rng)
	s2 := coherentStep(s1, rng)
	var out []flipStream
	for id := CodecID(0); id < numCodecs; id++ {
		out = append(out, flipStream{
			frames: encodeStream(id, 5, s1, s2),
			wants:  []*data.PointCloud{s1, s2},
		})
	}
	for _, id := range []CodecID{CodecRaw, CodecFlate} {
		v3 := out[id].frames
		out = append(out, flipStream{frames: [][]byte{asV2(v3[0]), asV2(v3[1])}})
	}
	return out
}

func FuzzFrameFlip(f *testing.F) {
	streams := buildFlipStreams()
	for i := range streams {
		b := uint8(i)
		f.Add(b, uint32(0), byte(0))    // clean stream
		f.Add(b, uint32(0), byte(0xff)) // type byte, frame 1
		f.Add(b, uint32(3), byte(0x80)) // length field
		f.Add(b, uint32(12), byte(1))   // step field
		f.Add(b, uint32(17), byte(2))   // v3 codec ID byte, frame 1
		f.Add(b, uint32(40), byte(0xa5))
		// Same offsets inside frame 2 — for temporal codecs that is the
		// delta frame, including its codec ID byte at offset 17.
		off := uint32(len(streams[i].frames[0]))
		f.Add(b, off, byte(0xff))
		f.Add(b, off+17, byte(2))
		f.Add(b, off+40, byte(0xa5))
		f.Add(b, uint32(1<<31), byte(2))
	}
	// v2 type bytes flipped into the v3 type: parsed as v3, caught by CRC.
	f.Add(uint8(numCodecs), uint32(0), byte(MsgDataset^MsgDatasetV3))
	f.Add(uint8(numCodecs+1), uint32(0), byte(msgDatasetFlateV2^MsgDatasetV3))
	f.Fuzz(func(t *testing.T, streamByte uint8, pos uint32, mask byte) {
		id := int(streamByte) % len(streams)
		st := streams[id]
		stream := bytes.Join(st.frames, nil)
		if mask != 0 {
			flipped := append([]byte(nil), stream...)
			flipped[int(pos)%len(flipped)] ^= mask
			stream = flipped
		}
		c := NewConn(&memConn{r: bytes.NewReader(stream)})
		if st.wants == nil {
			typ, _, _, err := c.Recv()
			if err == nil && typ == MsgDataset {
				t.Fatalf("stream %d: a v2-framed stream decoded a dataset (mask %#x at %d)",
					id, mask, int(pos)%len(stream))
			}
			// With the preamble intact the refusal is typed and reads
			// nothing past it; a flipped preamble may surface as another
			// error (bad length, v3 checksum), never as a dataset.
			if mask == 0 || int(pos)%len(stream) >= 9 {
				if !errors.Is(err, ErrCodecFrame) {
					t.Fatalf("stream %d: v2 type byte %d: err = %v, want ErrCodecFrame", id, stream[0], err)
				}
				if cap(c.rwire) != 0 {
					t.Fatalf("stream %d: receive buffer grew to %d bytes for a refused v2 frame", id, cap(c.rwire))
				}
			}
			return
		}
		clean := 0
		for i, want := range st.wants {
			typ, ds, step, err := c.Recv()
			if err != nil {
				break // corruption detected: acceptable for mask != 0
			}
			if typ != MsgDataset {
				// A type-byte flip can turn a dataset frame into another
				// valid message (e.g. MsgDone). The dataset is lost, never
				// silently wrong; the consumer sees a protocol violation.
				break
			}
			got, ok := ds.(*data.PointCloud)
			if !ok || !cloudEqual(got, want) {
				t.Fatalf("stream %d frame %d: Recv succeeded with a corrupted dataset (mask %#x at %d)",
					id, i, mask, int(pos)%len(stream))
			}
			if step != int64(5+i) {
				t.Fatalf("stream %d frame %d: step = %d, want %d", id, i, step, 5+i)
			}
			clean++
		}
		if mask == 0 && clean != len(st.wants) {
			t.Fatalf("stream %d: clean stream decoded %d/%d frames", id, clean, len(st.wants))
		}
		if mask != 0 && clean == len(st.wants) {
			t.Fatalf("stream %d: byte %d flipped with %#x and the whole stream still decoded",
				id, int(pos)%len(stream), mask)
		}
	})
}

// FuzzDeltaRoundTrip drives the temporal codecs with random shape-stable
// four-step streams: the fuzzed pattern byte makes each step after the
// first a coherent move of the one before (bit set) or an independent
// draw (bit clear), so a delta+flate stream switches between delta and
// keyframe mid-stream. Every frame must decode bit-exact, carry the codec
// Choose picks for its plain bytes against the previous frame's, and —
// under plain delta — keep the raw frame length (length-preserving
// residuals are what keep fault schedules aligned across codecs in the
// chaos suite).
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(0b111), true)
	f.Add(int64(3), uint16(1), uint8(0), false)
	f.Add(int64(7), uint16(2048), uint8(0b101), true)
	f.Add(int64(9), uint16(1500), uint8(0b010), true)
	f.Add(int64(0), uint16(0), uint8(0b110), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, pattern uint8, compress bool) {
		count := int(n)%2048 + 1
		rng := rand.New(rand.NewSource(seed))
		steps := []*data.PointCloud{fuzzCloud(count, rng)}
		for i := 0; i < 3; i++ {
			next := fuzzCloud(count, rng)
			if pattern&(1<<i) != 0 {
				next = coherentStep(steps[i], rng)
			}
			steps = append(steps, next)
		}
		codec := CodecDelta
		if compress {
			codec = CodecDeltaFlate
		}
		dss := make([]data.Dataset, len(steps))
		for i, s := range steps {
			dss[i] = s
		}
		frames := encodeStream(codec, 0, dss...)
		var prev []byte
		for i, ds := range dss {
			plain := vtkPayload(t, ds)
			if got, want := CodecID(frames[i][17]), Choose(codec, plain, prev); got != want {
				t.Fatalf("frame %d went out as %v, Choose says %v", i, got, want)
			}
			if codec == CodecDelta && len(frames[i]) != len(frames[0]) {
				t.Fatalf("delta frame %d length %d != keyframe length %d: XOR residual must be length-preserving",
					i, len(frames[i]), len(frames[0]))
			}
			prev = plain
		}
		c := NewConn(&memConn{r: bytes.NewReader(bytes.Join(frames, nil))})
		for i, want := range steps {
			typ, ds, step, err := c.Recv()
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if typ != MsgDataset || step != int64(i) {
				t.Fatalf("frame %d: typ %v step %d", i, typ, step)
			}
			if got, ok := ds.(*data.PointCloud); !ok || !cloudEqual(got, want) {
				t.Fatalf("frame %d: %v round trip not bit-exact", i, codec)
			}
		}
	})
}
