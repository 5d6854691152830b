package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// deflateLevels is every compress/flate level: HuffmanOnly, stored, and
// BestSpeed through BestCompression.
var deflateLevels = []int{flate.HuffmanOnly, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// stdDeflate compresses plain with compress/flate at level.
func stdDeflate(tb testing.TB, plain []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := zw.Write(plain); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// vtkPayload is ds as the plain bytes a sender puts under a codec.
func vtkPayload(tb testing.TB, ds data.Dataset) []byte {
	tb.Helper()
	p, err := vtkio.Append(nil, ds)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// workloadPayloads are the three payload shapes the codecs carry: a cosmo
// particle dataset, a blast grid, and a rendered viewer frame laid out as
// the hub's four-field grid (r, g, b, depth).
func workloadPayloads(tb testing.TB) map[string][]byte {
	tb.Helper()
	cloud := cosmoCloud(tb, 20_000)
	grid, err := blast.Generate(blast.Params{NX: 40, NY: 28, NZ: 24, BoxSize: 10, Seed: 1, TimeStep: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return map[string][]byte{
		"cosmo":     vtkPayload(tb, cloud),
		"blast":     vtkPayload(tb, grid),
		"hub-frame": frameGridPayload(tb, renderFrame(tb, "points", cloud, 160)),
	}
}

// TestInflateMatchesFlate decodes compress/flate's output at every level
// over every workload payload and requires the plain bytes back exactly.
// One inflater and one output buffer serve every case, so stale tables
// or stale output from the case before would show.
func TestInflateMatchesFlate(t *testing.T) {
	var z inflater
	var dst []byte
	for name, plain := range workloadPayloads(t) {
		for _, level := range deflateLevels {
			wire := stdDeflate(t, plain, level)
			got, err := z.inflate(dst[:0], wire, len(plain))
			if err != nil {
				t.Fatalf("%s level %d: %v", name, level, err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatalf("%s level %d: %d bytes decoded, not bit-exact with the %d sent", name, level, len(got), len(plain))
			}
			dst = got
		}
	}
}

// TestInflateBoundRejectsBomb sends a receiver bound to 1 MiB frames two
// small frames that inflate far past what they may: an 8 KiB flate frame
// of 8 MiB of zeros, and a delta+flate frame whose bitmap declares one
// block while its DEFLATE stream carries those 8 MiB. Both must fail with
// ErrCodecFrame, and neither may make the receiver allocate the 8 MiB;
// delta+flate, bounded by its bitmap, may not even allocate the 1 MiB.
func TestInflateBoundRejectsBomb(t *testing.T) {
	zeros := make([]byte, 8<<20)
	bomb := stdDeflate(t, zeros, flate.BestSpeed)
	if len(bomb) > 16<<10 {
		t.Fatalf("8 MiB of zeros deflates to %d bytes, want a small frame", len(bomb))
	}
	key := vtkPayload(t, sampleCloud(300))

	// The delta+flate container: residual length, a bitmap with block 0
	// set alone, then the bomb.
	nb := (len(key) + dfBlock - 1) / dfBlock
	df := binary.BigEndian.AppendUint64(nil, uint64(len(key)))
	df = append(df, make([]byte, (nb+7)/8)...)
	df[8] = 1
	df = append(df, bomb...)

	for _, tc := range []struct {
		name   string
		key    bool // a raw keyframe goes first, as the reference
		codec  CodecID
		wire   []byte
		plainN int
		// ceiling bounds what rejecting the frame may allocate: flate
		// grows its output up to the frame bound; delta+flate knows its
		// exact size from the bitmap and inflates into the Conn's buffer.
		ceiling uint64
	}{
		{"flate", false, CodecFlate, bomb, len(zeros), uint64(len(zeros))},
		{"delta+flate", true, CodecDeltaFlate, df, len(key), 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := &memConn{}
			send := NewConn(mc)
			if tc.key {
				if err := send.SendEncoded(CodecRaw, key, len(key)); err != nil {
					t.Fatal(err)
				}
				send.Step++
			}
			if err := send.SendEncoded(tc.codec, tc.wire, tc.plainN); err != nil {
				t.Fatal(err)
			}
			recv := NewConn(&memConn{r: bytes.NewReader(mc.w.Bytes())})
			recv.SetMaxFrame(1 << 20)
			if tc.key {
				if _, _, _, err := recv.Recv(); err != nil {
					t.Fatalf("keyframe: %v", err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, err := recv.Recv()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCodecFrame) {
				t.Fatalf("bomb frame: err = %v, want ErrCodecFrame", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= tc.ceiling {
				t.Errorf("rejecting the bomb allocated %d bytes, want fewer than %d", grew, tc.ceiling)
			}
		})
	}
}

// bitWriter packs a DEFLATE stream least-significant bit first.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint64, n uint) {
	for i := n; i > 0; i-- {
		w.bits(c>>(i-1)&1, 1)
	}
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.buf, byte(w.acc))
	}
	return w.buf
}

// dynamicA is one final dynamic block that decodes to "A", declaring
// 257+hlit literal/length and 1+hdist distance code lengths: compress/flate
// accepts hlit ≤ 29 and hdist ≤ 29 only, and nothing it writes comes
// near either edge, so the fuzzer gets the edges as seeds.
func dynamicA(hlit, hdist int) []byte {
	var w bitWriter
	w.bits(1, 1) // final
	w.bits(2, 2) // dynamic
	w.bits(uint64(hlit), 5)
	w.bits(uint64(hdist), 5)
	w.bits(14, 4) // 18 code-length code lengths, up to symbol 1's slot
	// Code-length code: 0 → "0", 1 → "10", 18 → "11".
	for _, s := range clOrder[:18] {
		w.bits(map[uint8]uint64{0: 1, 1: 2, 18: 2}[s], 3)
	}
	zeros := func(n int) { // runs of 11–138 zeros, as code 18
		for n > 0 {
			k := min(n, 138)
			w.code(3, 2)
			w.bits(uint64(k-11), 7)
			n -= k
		}
	}
	zeros(65)
	w.code(2, 2) // 'A': length 1
	zeros(190)
	w.code(2, 2) // end of block: length 1
	zeros(hlit)
	w.code(2, 2) // distances 0 and 1: length 1
	w.code(2, 2)
	zeros(hdist - 1)
	w.code(0, 1) // 'A'
	w.code(1, 1) // end of block
	return w.bytes()
}

// inflateSeeds are FuzzInflate's starting streams: compress/flate's
// output at every level, a fixed-Huffman stream, stored blocks, an empty
// stream, no stream at all, truncations of a dynamic one, and dynamic
// headers at and past compress/flate's code-count limits.
func inflateSeeds(tb testing.TB) [][]byte {
	plain := vtkPayload(tb, sampleCloud(120))
	var seeds [][]byte
	for _, level := range deflateLevels {
		seeds = append(seeds, stdDeflate(tb, plain, level))
	}
	fixed := stdDeflate(tb, []byte("hello, hello, hello, hello"), flate.DefaultCompression)
	if fixed[0]>>1&3 != 1 {
		tb.Fatalf("seed stream opens with block type %d, want fixed Huffman (1)", fixed[0]>>1&3)
	}
	dynamic := stdDeflate(tb, plain, flate.BestSpeed)
	seeds = append(seeds,
		fixed,
		stdDeflate(tb, plain[:300], flate.NoCompression),
		stdDeflate(tb, nil, flate.BestSpeed),
		nil,
		dynamic[:len(dynamic)/2],
		dynamic[:len(dynamic)-5],
		dynamicA(29, 29),
		dynamicA(30, 29),
		dynamicA(29, 30),
		dynamicA(29, 31),
	)
	return seeds
}

// FuzzInflate holds inflate to compress/flate on arbitrary bytes: where
// the stdlib reader decodes a stream within the limit, inflate returns the
// same bytes; where it fails, or its output runs past the limit, inflate
// fails with ErrCodecFrame. One inflater and one output buffer, filled
// with junk before each call, serve every input, so neither stale tables
// nor stale output can hide.
func FuzzInflate(f *testing.F) {
	for _, s := range inflateSeeds(f) {
		f.Add(s, uint32(1<<20))
	}
	f.Add(stdDeflate(f, make([]byte, 5000), flate.BestSpeed), uint32(4999))
	var z inflater
	buf := make([]byte, 64<<10)
	f.Fuzz(func(t *testing.T, wire []byte, limit uint32) {
		lim := int(limit % (1<<20 + 1))
		want, wantErr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(wire)), int64(lim)+1))
		for i := range buf {
			buf[i] = 0xA5
		}
		got, err := z.inflate(buf[:0], wire, lim)
		switch {
		case wantErr != nil || len(want) > lim:
			if err == nil {
				t.Fatalf("stdlib: %d bytes, %v (limit %d); inflate accepted %d bytes", len(want), wantErr, lim, len(got))
			}
			if !errors.Is(err, ErrCodecFrame) {
				t.Fatalf("inflate failed with %v, want ErrCodecFrame", err)
			}
		case err != nil:
			t.Fatalf("stdlib decoded %d bytes; inflate: %v", len(want), err)
		case !bytes.Equal(got, want):
			t.Fatalf("inflate decoded %d bytes that differ from stdlib's %d", len(got), len(want))
		}
	})
}
