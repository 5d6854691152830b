// Wire codecs: the payload-encoding axis of the design space. A codec
// turns a serialized dataset (the "plain" vtkio bytes) into the wire
// payload of a v3 frame and back. Codecs are stateful per Conn and per
// direction (or per Encoder, for a broadcaster that encodes once for many
// connections) — the DEFLATE coders' tables and scratch buffers persist
// across frames so the steady state stays allocation-free — and the
// temporal codecs (delta, delta+flate) additionally reference the
// previous step's plain payload, which the Conn retains on both sides of
// the link.
//
// Temporal codecs never stand alone on the wire: the first frame of a
// connection (and the first after any error) is a keyframe, encoded with
// the codec's Keyframe fallback (raw for delta, flate for delta+flate),
// so a receiver with no reference state can always resynchronize. A
// delta+flate sender also keyframes any frame whose delta is estimated
// to be larger than its keyframe (Choose): incoherent steps go out as
// flate, and the receiver keeps the plain payload as its reference
// whatever the codec byte says. The
// codec ID travels in every frame header, covered by the CRC trailer, so
// a flipped codec byte surfaces as ErrChecksum, never as a frame decoded
// under the wrong codec.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// CodecID identifies a payload codec in the v3 frame header.
type CodecID uint8

const (
	// CodecRaw sends the vtkio bytes untouched (the zero value, and the
	// default): lowest latency, highest bandwidth.
	CodecRaw CodecID = iota
	// CodecFlate DEFLATE-compresses each frame independently — the
	// stateless compression lever carried over from wire format v2.
	CodecFlate
	// CodecDelta XORs the plain payload against the previous step's: for
	// coherent successive steps the residual is mostly zero bytes. The
	// wire length equals the raw length (delta trades nothing for speed;
	// it exists to feed delta+flate and to keep fault schedules aligned
	// with raw framing).
	CodecDelta
	// CodecDeltaFlate DEFLATE-compresses the XOR residual: near-zero
	// residuals compress an order of magnitude better — and faster — than
	// absolute values.
	CodecDeltaFlate

	numCodecs
)

// ErrDeltaState is returned when a temporal frame (delta, delta+flate)
// arrives but the receiver holds no reference payload — a protocol
// violation, since senders must open every connection with a keyframe.
var ErrDeltaState = errors.New("transport: delta frame without reference state")

// ErrCodecFrame is returned when a compressed frame's container is
// structurally malformed — truncated header, bitmap, or packed blocks
// that disagree with the bitmap, a corrupt or truncated DEFLATE stream,
// or one that inflates past its bound — or when a dataset frame arrives
// under the retired codec-less v2 framing. It indicates corruption the CRC did
// not catch (or a buggy or outdated peer), never a recoverable
// state-loss condition.
var ErrCodecFrame = errors.New("transport: malformed codec frame")

var codecNames = [numCodecs]string{"raw", "flate", "delta", "delta+flate"}

// String returns the codec's sweep-axis name.
func (id CodecID) String() string {
	if id < numCodecs {
		return codecNames[id]
	}
	return fmt.Sprintf("codec(%d)", uint8(id))
}

// Valid reports whether id names a known codec.
func (id CodecID) Valid() bool { return id < numCodecs }

// Temporal reports whether the codec references the previous step's
// payload and therefore needs keyframe resynchronization.
func (id CodecID) Temporal() bool { return id == CodecDelta || id == CodecDeltaFlate }

// Keyframe returns the codec used for a full-dataset frame when id has no
// reference state to delta against: raw for delta, flate for delta+flate,
// and id itself for the non-temporal codecs.
func (id CodecID) Keyframe() CodecID {
	switch id {
	case CodecDelta:
		return CodecRaw
	case CodecDeltaFlate:
		return CodecFlate
	default:
		return id
	}
}

// Choose returns the codec a sender configured with id puts plain under,
// given prev, the plain payload the receiver holds as its reference (nil
// when it holds none). A temporal codec without a reference falls back
// to its keyframe. With one, delta+flate still keyframes when
// keyframeSmaller says flate's output would be the smaller of the two,
// as it is when successive steps are independent draws; plain delta
// keeps the delta, since its wire length is the same either way. Every
// other case is id itself. Choose is deterministic and allocation-free,
// so two senders of the same bytes — a lone Conn and the hub's shared
// encoding — make the same choice.
func Choose(id CodecID, plain, prev []byte) CodecID {
	switch {
	case !id.Temporal():
		return id
	case prev == nil:
		return id.Keyframe()
	case id == CodecDeltaFlate && keyframeSmaller(plain, prev):
		return CodecFlate
	default:
		return id
	}
}

// estStride is keyframeSmaller's sampling stride in dfBlock blocks: one
// block in eight is enough to tell a coherent step from an independent
// draw, at an eighth of the cost of looking at every byte.
const estStride = 8

// klog2k[k] is k·log2(k) in 1/65536 bits, so a block's order-0 entropy —
// n·log2(n) − Σ k·log2(k) over its byte counts — sums in integers and
// comes out the same on every platform. The largest entry, 4096·12·2^16,
// fits in a uint32.
var klog2k = func() (t [dfBlock + 1]uint32) {
	for k := 2; k <= dfBlock; k++ {
		t[k] = uint32(math.Round(float64(k) * math.Log2(float64(k)) * 65536))
	}
	return t
}()

// keyframeSmaller estimates whether plain alone encodes smaller than its
// XOR residual against prev. It samples every estStride-th dfBlock block
// of plain and, for each, compares the order-0 byte entropy — the size a
// Huffman-only coder would reach — of the plain bytes with that of the
// residual. An all-zero residual block has entropy 0, which is also what
// it costs on the wire: the delta+flate container elides it. The
// keyframe wins only when its sampled total is strictly smaller: a tie
// keeps the delta.
func keyframeSmaller(plain, prev []byte) bool {
	var key, delta int64
	for lo := 0; lo < len(plain); lo += estStride * dfBlock {
		hi := min(lo+dfBlock, len(plain))
		var hp, hr [256]uint32
		for i := lo; i < hi; i++ {
			b := plain[i]
			hp[b]++
			if i < len(prev) {
				b ^= prev[i]
			}
			hr[b]++
		}
		key += blockEntropy(&hp, hi-lo)
		delta += blockEntropy(&hr, hi-lo)
	}
	return key < delta
}

// blockEntropy is the order-0 entropy of n bytes with histogram h, in
// klog2k's units.
func blockEntropy(h *[256]uint32, n int) int64 {
	e := int64(klog2k[n])
	for _, k := range h {
		e -= int64(klog2k[k])
	}
	return e
}

// Codecs lists every codec name in ID order — the sweep axis for CLIs and
// benchmarks.
func Codecs() []string { return codecNames[:] }

// ParseCodec maps a sweep-axis name ("raw", "flate", "delta",
// "delta+flate"; "" means raw) to its CodecID.
func ParseCodec(name string) (CodecID, error) {
	if name == "" {
		return CodecRaw, nil
	}
	for id, n := range codecNames {
		if n == name {
			return CodecID(id), nil
		}
	}
	return 0, fmt.Errorf("transport: unknown codec %q (want one of %v)", name, Codecs())
}

// Codec encodes plain dataset bytes into a wire payload and back. prev is
// the previous step's *plain* payload on both sides (nil for keyframes
// and non-temporal codecs). Encode and Decode append into dst[:0] and
// return the result — except rawCodec, which passes the input through
// unchanged so the pass-through path costs zero copies. A decompressing
// Decode produces at most limit plain bytes and fails with ErrCodecFrame
// before it would grow past them, so a small frame cannot inflate into an
// unbounded allocation. Implementations keep internal scratch, so one
// instance must not be shared between a sending and a receiving
// goroutine; the Conn keeps separate per-direction instances.
type Codec interface {
	Encode(dst, plain, prev []byte) ([]byte, error)
	Decode(dst, wire, prev []byte, limit int) ([]byte, error)
}

// Encoder is the send side of the codecs on its own: what a Conn runs
// inside SendDataset, for a broadcaster that encodes a payload once and
// sends the result on many connections with SendEncoded. Instances are
// built on first use and keep their scratch, so an Encoder must not be
// used from two goroutines at once. The zero value is ready to use.
type Encoder struct {
	codecs [numCodecs]Codec
}

// Encode appends plain's encoding under codec id to dst[:0] and returns
// it (raw returns plain itself). prev is the plain payload a temporal
// codec encodes against; the other codecs ignore it.
func (e *Encoder) Encode(id CodecID, dst, plain, prev []byte) ([]byte, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("transport: encode with invalid codec %s", id)
	}
	if e.codecs[id] == nil {
		e.codecs[id] = newCodec(id)
	}
	return e.codecs[id].Encode(dst, plain, prev)
}

// newCodec builds a fresh stateful instance of the codec.
func newCodec(id CodecID) Codec {
	switch id {
	case CodecRaw:
		return rawCodec{}
	case CodecFlate:
		return &flateCodec{}
	case CodecDelta:
		return deltaCodec{}
	case CodecDeltaFlate:
		return &deltaFlateCodec{}
	default:
		panic("transport: newCodec on invalid codec " + id.String())
	}
}

// rawCodec is the identity codec: the wire payload is the plain payload.
type rawCodec struct{}

func (rawCodec) Encode(_, plain, _ []byte) ([]byte, error)       { return plain, nil }
func (rawCodec) Decode(_, wire, _ []byte, _ int) ([]byte, error) { return wire, nil }

// flateCodec DEFLATE-compresses frames independently. The deflater's
// match table and code tables and the inflater's tables persist across
// frames, so a steady stream encodes and decodes with no allocation.
type flateCodec struct {
	deflater
	inflater
}

func (f *flateCodec) Encode(dst, plain, _ []byte) ([]byte, error) {
	return f.deflate(dst[:0], plain), nil
}

func (f *flateCodec) Decode(dst, wire, _ []byte, limit int) ([]byte, error) {
	return f.inflate(dst, wire, limit)
}

// deltaCodec XORs against the previous plain payload. XOR is self-inverse
// so Encode and Decode are the same transform, and the wire length always
// equals the plain length.
type deltaCodec struct{}

func (deltaCodec) Encode(dst, plain, prev []byte) ([]byte, error) {
	if prev == nil {
		return nil, fmt.Errorf("transport: delta encode: %w", ErrDeltaState)
	}
	return xorDelta(dst, plain, prev), nil
}

func (deltaCodec) Decode(dst, wire, prev []byte, _ int) ([]byte, error) {
	if prev == nil {
		return nil, fmt.Errorf("transport: delta decode: %w", ErrDeltaState)
	}
	return xorDelta(dst, wire, prev), nil
}

// dfBlock is the zero-elision granule of the delta+flate container.
// 4 KiB is small enough that one changed array in an otherwise-quiet
// payload only drags its own blocks through DEFLATE, and large enough
// that the bitmap overhead is 1 bit per 4096 bytes.
const dfBlock = 4096

// deltaFlateCodec composes delta and flate with a sparse-block container.
// The XOR residual of coherent steps is dominated by all-zero regions
// (unchanged arrays), so the wire payload is
//
//	[8B residual length][block bitmap][DEFLATE of the nonzero blocks]
//
// and DEFLATE — the expensive stage in both directions — only ever sees
// the blocks that actually changed: Encode packs them to the front of the
// residual in place and deflates them as one stream, which Decode
// inflates to the front of its output and spreads back. The cost of a delta+flate frame
// therefore scales with how much of the dataset moved between steps, not
// with the dataset size; a fully-quiet step costs one bitmap and an
// empty DEFLATE stream.
type deltaFlateCodec struct {
	deflater
	res []byte // XOR residual, its non-zero blocks packed to the front
	inflater
}

func (d *deltaFlateCodec) Encode(dst, plain, prev []byte) ([]byte, error) {
	if prev == nil {
		return nil, fmt.Errorf("transport: delta+flate encode: %w", ErrDeltaState)
	}
	d.res = xorDelta(d.res, plain, prev)
	res := d.res
	nb := (len(res) + dfBlock - 1) / dfBlock
	// dst is a reused buffer: append the bitmap as zeros, or its capacity
	// resurrects old bytes.
	out := binary.BigEndian.AppendUint64(dst[:0], uint64(len(res)))
	out = append(out, make([]byte, (nb+7)/8)...)
	// Pack the blocks that changed to the front of the residual, in
	// place (a block only ever moves down), and deflate them as one
	// stream.
	packed := 0
	for b := 0; b < nb; b++ {
		lo, hi := b*dfBlock, min((b+1)*dfBlock, len(res))
		if allZero(res[lo:hi]) {
			continue
		}
		out[8+b/8] |= 1 << (b % 8)
		if packed != lo {
			copy(res[packed:], res[lo:hi])
		}
		packed += hi - lo
	}
	return d.deflate(out, res[:packed]), nil
}

func (d *deltaFlateCodec) Decode(dst, wire, prev []byte, limit int) ([]byte, error) {
	if prev == nil {
		return nil, fmt.Errorf("transport: delta+flate decode: %w", ErrDeltaState)
	}
	if len(wire) < 8 {
		return nil, fmt.Errorf("%w: delta+flate frame shorter than its header", ErrCodecFrame)
	}
	resLen := binary.BigEndian.Uint64(wire)
	if resLen > uint64(limit) {
		return nil, fmt.Errorf("%w: delta+flate residual of %d bytes exceeds the %d-byte bound", ErrCodecFrame, resLen, limit)
	}
	n := int(resLen)
	nb := (n + dfBlock - 1) / dfBlock
	bitmapLen := (nb + 7) / 8
	if len(wire) < 8+bitmapLen {
		return nil, fmt.Errorf("%w: delta+flate frame shorter than its block bitmap", ErrCodecFrame)
	}
	bitmap := wire[8 : 8+bitmapLen]
	// The DEFLATE stream carries exactly the set blocks, the last one
	// short when it is the payload's tail: that is its inflate bound.
	packed := 0
	for b := 0; b < nb; b++ {
		if bitmap[b/8]&(1<<(b%8)) != 0 {
			packed += min(dfBlock, n-b*dfBlock)
		}
	}

	// Inflate the packed blocks to the front of dst, spread them to their
	// places last first (a block only ever moves up, past the packed
	// blocks still waiting in front of it), zero the quiet blocks, then
	// XOR in place against the reference (self-inverse, index-aligned).
	out := dst[:0]
	if cap(out) < n {
		out = make([]byte, 0, n)
	}
	p, err := d.inflate(out, wire[8+bitmapLen:], packed)
	if err != nil {
		return nil, err
	}
	if len(p) != packed {
		return nil, fmt.Errorf("%w: delta+flate packed blocks truncated", ErrCodecFrame)
	}
	out = out[:n]
	for b := nb - 1; b >= 0; b-- {
		lo, hi := b*dfBlock, min((b+1)*dfBlock, n)
		if bitmap[b/8]&(1<<(b%8)) != 0 {
			packed -= hi - lo
			copy(out[lo:hi], out[packed:])
		} else {
			clear(out[lo:hi])
		}
	}
	return xorDelta(out, out, prev), nil
}

// allZero reports whether b contains only zero bytes, a word at a time.
func allZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// xorDelta writes cur XOR prev into dst (reusing its capacity) and
// returns it, always len(cur) long: bytes past len(prev) are copied
// verbatim, so a shape change mid-stream stays losslessly invertible.
// The loop runs a machine word at a time; tails finish byte-wise.
func xorDelta(dst, cur, prev []byte) []byte {
	if cap(dst) >= len(cur) {
		dst = dst[:len(cur)]
	} else {
		dst = make([]byte, len(cur))
	}
	n := len(cur)
	if len(prev) < n {
		n = len(prev)
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(cur[i:])^binary.LittleEndian.Uint64(prev[i:]))
	}
	for ; i < n; i++ {
		dst[i] = cur[i] ^ prev[i]
	}
	copy(dst[n:], cur[n:])
	return dst
}
