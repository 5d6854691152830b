package transport

// Inflate in place: the receive half of the flate and delta+flate codecs.
// compress/flate's reader streams through a 32 KiB window, pulls its
// input one io.ByteReader call at a time and rebuilds link tables per
// dynamic block; a received frame is already one []byte, and its output
// has a known home. inflate decodes the frame straight into that home:
// a 64-bit bit buffer over the slice, a 10-bit primary table per
// alphabet with a canonical walk for the rare longer codes,
// back-references copied within the output itself, and tables that live
// in the codec across frames — no window, no per-byte call, no per-block
// allocation. It accepts exactly the streams compress/flate accepts
// (FuzzInflate holds it to that), so any RFC 1951 encoder may feed it:
// the send half is deflate (deflate.go), and compress/flate remains only
// the tests' reference coder.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

const (
	fastBits    = 10 // index width of a primary table
	fastMask    = 1<<fastBits - 1
	maxCodeBits = 15 // longest DEFLATE code

	// A table entry packs what a decoded symbol means, so the hot loop
	// needs one load per symbol: bits 0–3 the code length, 4–6 the kind,
	// 8–11 the extra-bit count, 16–31 the value (a literal byte, a length
	// or distance base, or a code-length symbol).
	kindLit  = 0 << 4 // a literal byte, or a code-length symbol
	kindLen  = 1 << 4 // a length or distance base with its extra bits
	kindEOB  = 2 << 4
	kindBad  = 3 << 4 // no code here, or a symbol the format reserves
	kindLong = 4 << 4 // the prefix of a code longer than fastBits
	kindMask = 7 << 4

	numLit  = 286 // literal/length symbols a dynamic block may declare
	numDist = 30  // distance symbols a dynamic block may declare
)

var (
	errDeflateCorrupt   = fmt.Errorf("%w: corrupt DEFLATE stream", ErrCodecFrame)
	errDeflateTruncated = fmt.Errorf("%w: truncated DEFLATE stream", ErrCodecFrame)
)

// Length and distance bases and extra-bit counts (RFC 1951 §3.2.5).
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	// clOrder is the order a dynamic header lists code-length code lengths in.
	clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// The alphabets a table decodes.
const (
	alphaLit  = iota // literal/length, 0–287
	alphaDist        // distance, 0–31
	alphaCode        // code length, 0–18
)

// symEntry is the table entry of sym in alpha, code length not yet set.
func symEntry(alpha, sym int) uint32 {
	switch {
	case alpha == alphaCode || alpha == alphaLit && sym < 256:
		return kindLit | uint32(sym)<<16
	case alpha == alphaLit && sym == 256:
		return kindEOB
	case alpha == alphaLit && sym < 286:
		s := sym - 257
		return kindLen | uint32(lenExtra[s])<<8 | uint32(lenBase[s])<<16
	case alpha == alphaDist && sym < numDist:
		return kindLen | uint32(distExtra[sym])<<8 | uint32(distBase[sym])<<16
	default: // literal/length 286–287, distance 30–31
		return kindBad
	}
}

// huffTable decodes one canonical Huffman code: codes of up to fastBits
// bits in one lookup, longer ones by a canonical walk over count and
// long.
type huffTable struct {
	fast  [1 << fastBits]uint32
	count [maxCodeBits + 1]uint16 // codes per length
	long  [288]uint32             // entries in canonical order
}

// build fills the table from per-symbol code lengths. It accepts what
// compress/flate accepts: a complete code, a single code of length one
// (zlib's degenerate case), or no code at all (any symbol decoded from
// an empty table is an error); anything else reports false.
func (h *huffTable) build(lens []uint8, alpha int) bool {
	var count [maxCodeBits + 1]uint16
	for _, n := range lens {
		count[n]++
	}
	count[0] = 0
	h.count = count
	longest := maxCodeBits
	for longest > 0 && count[longest] == 0 {
		longest--
	}
	code := 0
	for n := 1; n <= longest; n++ {
		code = code<<1 + int(count[n])
	}
	if code != 1<<longest || longest == 0 {
		// Only an incomplete code leaves entries that no code fills.
		if longest != 0 && !(code == 1 && longest == 1) {
			return false
		}
		for i := range h.fast {
			h.fast[i] = kindBad
		}
	}
	var next, offs [maxCodeBits + 1]int
	for n, c, o := 1, 0, 0; n <= longest; n++ {
		c = (c + int(count[n-1])) << 1
		next[n], offs[n] = c, o
		o += int(count[n])
	}
	for sym, l := range lens {
		n := int(l)
		if n == 0 {
			continue
		}
		e := symEntry(alpha, sym) | uint32(n)
		h.long[offs[n]] = e
		offs[n]++
		rev := int(bits.Reverse16(uint16(next[n]))) >> (16 - n)
		next[n]++
		if n > fastBits {
			h.fast[rev&fastMask] = kindLong
			continue
		}
		for i := rev; i < len(h.fast); i += 1 << n {
			h.fast[i] = e
		}
	}
	return true
}

// slow decodes a code longer than fastBits from the low bits of b, one
// bit and one length at a time; kindBad when no code matches.
func (h *huffTable) slow(b uint64) uint32 {
	code, first, index := 0, 0, 0
	for n := 1; n <= maxCodeBits; n++ {
		code |= int(b & 1)
		b >>= 1
		count := int(h.count[n])
		if code-count < first {
			return h.long[index+code-first]
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return kindBad
}

// The fixed-Huffman tables (RFC 1951 §3.2.6), shared by every inflater.
var fixedLit, fixedDist = func() (lit, dist *huffTable) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	lit, dist = new(huffTable), new(huffTable)
	lit.build(lens[:], alphaLit)
	for i := 0; i < 32; i++ {
		lens[i] = 5
	}
	dist.build(lens[:32], alphaDist)
	return lit, dist
}()

// inflater holds a decoder's tables across frames, so a dynamic block
// costs table fills and no allocation. The zero value is ready to use.
type inflater struct {
	lit, dist, code huffTable
	lens            [numLit + numDist]uint8
}

// bitReader reads a DEFLATE stream least-significant bit first out of a
// byte slice. Past the end of in it loads zero bytes and counts them in
// pad: a stream is truncated exactly when it consumes one of those bits.
type bitReader struct {
	in    []byte
	pos   int    // next byte of in to load
	bits  uint64 // loaded bits, next bit lowest
	nbits uint   // how many of them are loaded and unconsumed
	pad   int    // zero bytes loaded past the end of in
}

// refill loads bits until at least 56 are unconsumed.
func (r *bitReader) refill() error {
	if r.pos+8 <= len(r.in) {
		// A whole word at once; the bytes beyond the counted ones land
		// where the next refill puts the same bytes again.
		r.bits |= binary.LittleEndian.Uint64(r.in[r.pos:]) << r.nbits
		r.pos += int(63-r.nbits) >> 3
		r.nbits |= 56
		return nil
	}
	if !r.whole() {
		return errDeflateTruncated
	}
	for r.nbits <= 56 {
		if r.pos < len(r.in) {
			r.bits |= uint64(r.in[r.pos]) << r.nbits
			r.pos++
		} else {
			r.pad++
		}
		r.nbits += 8
	}
	return nil
}

// whole reports whether every bit consumed so far came from in.
func (r *bitReader) whole() bool { return int(r.nbits) >= 8*r.pad }

// take consumes and returns the next n ≤ 32 bits.
func (r *bitReader) take(n uint) (uint32, error) {
	if r.nbits < n {
		if err := r.refill(); err != nil {
			return 0, err
		}
	}
	v := uint32(r.bits & (1<<n - 1))
	r.bits >>= n
	r.nbits -= n
	return v, nil
}

// sym decodes one symbol of h and returns its entry.
func (r *bitReader) sym(h *huffTable) (uint32, error) {
	if r.nbits < maxCodeBits {
		if err := r.refill(); err != nil {
			return 0, err
		}
	}
	e := h.fast[r.bits&fastMask]
	if e&kindMask == kindLong {
		e = h.slow(r.bits)
	}
	if e&kindMask == kindBad {
		return 0, errDeflateCorrupt
	}
	n := uint(e & 15)
	r.bits >>= n
	r.nbits -= n
	return e, nil
}

// inflate decodes the raw DEFLATE stream wire into dst[:0] and returns
// the result, which may not exceed limit bytes: past it inflate returns
// ErrCodecFrame before growing dst. It grows dst only when its capacity
// runs out, so a receiver that passes back the buffer of the frame
// before decodes a same-size frame with no allocation. Bytes after the
// final block are ignored, as compress/flate ignores them.
func (z *inflater) inflate(dst, wire []byte, limit int) ([]byte, error) {
	out := dst[:min(cap(dst), limit)]
	w := 0
	r := bitReader{in: wire}
	for {
		hdr, err := r.take(3)
		if err != nil {
			return nil, err
		}
		switch hdr >> 1 {
		case 0:
			out, w, err = stored(&r, out, w, limit)
		case 1:
			out, w, err = codes(&r, out, w, limit, fixedLit, fixedDist)
		case 2:
			if err = z.readTables(&r); err == nil {
				out, w, err = codes(&r, out, w, limit, &z.lit, &z.dist)
			}
		default:
			err = errDeflateCorrupt
		}
		if err != nil {
			return nil, err
		}
		if !r.whole() {
			return nil, errDeflateTruncated
		}
		if hdr&1 != 0 {
			return out[:w], nil
		}
	}
}

// grow returns out with room for need more bytes after w, or
// ErrCodecFrame when that would pass limit. It starts at hint, the
// stream's own length, and then grows by a quarter at a time, as append
// does for large slices: a receiver keeps two such buffers per Conn (this
// frame's and its reference), so overshoot costs twice.
func grow(out []byte, w, need, limit, hint int) ([]byte, error) {
	if w+need > limit {
		return nil, fmt.Errorf("%w: DEFLATE stream inflates past %d bytes", ErrCodecFrame, limit)
	}
	next := make([]byte, min(max(len(out)+len(out)/4, w+need, hint), limit))
	copy(next, out[:w])
	return next, nil
}

// stored copies a stored block's bytes out of the stream.
func stored(r *bitReader, out []byte, w, limit int) ([]byte, int, error) {
	// The block starts at the next byte boundary: drop the partial byte
	// and rewind over whole bytes loaded ahead.
	p := (8*(r.pos+r.pad) - int(r.nbits) + 7) / 8
	r.bits, r.nbits, r.pad = 0, 0, 0
	if p+4 > len(r.in) {
		return out, w, errDeflateTruncated
	}
	n := int(binary.LittleEndian.Uint16(r.in[p:]))
	if binary.LittleEndian.Uint16(r.in[p+2:]) != ^uint16(n) {
		return out, w, errDeflateCorrupt
	}
	p += 4
	if p+n > len(r.in) {
		return out, w, errDeflateTruncated
	}
	if w+n > len(out) {
		var err error
		if out, err = grow(out, w, n, limit, len(r.in)); err != nil {
			return out, w, err
		}
	}
	copy(out[w:], r.in[p:p+n])
	r.pos = p + n
	return out, w + n, nil
}

// readTables reads a dynamic block's code lengths and builds its
// literal/length and distance tables.
func (z *inflater) readTables(r *bitReader) error {
	hdr, err := r.take(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(hdr&31)+257, int(hdr>>5&31)+1, int(hdr>>10)+4
	if nlit > numLit || ndist > numDist {
		return errDeflateCorrupt
	}
	var cl [19]uint8
	for _, s := range clOrder[:nclen] {
		v, err := r.take(3)
		if err != nil {
			return err
		}
		cl[s] = uint8(v)
	}
	if !z.code.build(cl[:], alphaCode) {
		return errDeflateCorrupt
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := r.sym(&z.code)
		if err != nil {
			return err
		}
		v := e >> 16
		if v < 16 {
			lens[i] = uint8(v)
			i++
			continue
		}
		// 16 repeats the previous length 3–6 times, 17 and 18 repeat a
		// zero 3–10 and 11–138 times.
		rep, x, l := 3, uint(2), uint8(0)
		switch v {
		case 16:
			if i == 0 {
				return errDeflateCorrupt
			}
			l = lens[i-1]
		case 17:
			x = 3
		default:
			rep, x = 11, 7
		}
		extra, err := r.take(x)
		if err != nil {
			return err
		}
		rep += int(extra)
		if i+rep > len(lens) {
			return errDeflateCorrupt
		}
		for end := i + rep; i < end; i++ {
			lens[i] = l
		}
	}
	if !z.lit.build(lens[:nlit], alphaLit) || !z.dist.build(lens[nlit:], alphaDist) {
		return errDeflateCorrupt
	}
	return nil
}

// codes decodes one Huffman-coded block into out from w on. The bit
// buffer lives in locals here, so the loop keeps it in registers; one
// refill covers the longest symbol pair (15+5 length bits, 15+13
// distance bits).
func codes(r *bitReader, out []byte, w, limit int, lt, dt *huffTable) ([]byte, int, error) {
	in := r.in
	b, nb, pos := r.bits, r.nbits, r.pos
	var err error
	for {
		if nb < 48 {
			if pos+8 <= len(in) {
				b |= binary.LittleEndian.Uint64(in[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				r.bits, r.nbits, r.pos = b, nb, pos
				if err = r.refill(); err != nil {
					return out, w, err
				}
				b, nb, pos = r.bits, r.nbits, r.pos
			}
		}
		e := lt.fast[b&fastMask]
		if e&kindMask == kindLit && w+3 <= len(out) {
			// A run of literals: 48 loaded bits cover three codes of up
			// to 15 bits, so the next two need no refill check. A
			// symbol that is not a literal goes round the loop again.
			n := uint(e & 15)
			b >>= n
			nb -= n
			out[w] = byte(e >> 16)
			if e = lt.fast[b&fastMask]; e&kindMask != kindLit {
				w++
				continue
			}
			n = uint(e & 15)
			b >>= n
			nb -= n
			out[w+1] = byte(e >> 16)
			if e = lt.fast[b&fastMask]; e&kindMask != kindLit {
				w += 2
				continue
			}
			n = uint(e & 15)
			b >>= n
			nb -= n
			out[w+2] = byte(e >> 16)
			w += 3
			continue
		}
		if e&kindMask == kindLong {
			e = lt.slow(b)
		}
		n := uint(e & 15)
		b >>= n
		nb -= n
		switch e & kindMask {
		case kindLit:
			if w >= len(out) {
				if out, err = grow(out, w, 1, limit, len(in)); err != nil {
					return out, w, err
				}
			}
			out[w] = byte(e >> 16)
			w++
			continue
		case kindLen:
		case kindEOB:
			r.bits, r.nbits, r.pos = b, nb, pos
			return out, w, nil
		default:
			return out, w, errDeflateCorrupt
		}
		x := uint(e>>8) & 15
		length := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x

		e = dt.fast[b&fastMask]
		if e&kindMask == kindLong {
			e = dt.slow(b)
		}
		if e&kindMask != kindLen {
			return out, w, errDeflateCorrupt
		}
		n = uint(e & 15)
		b >>= n
		nb -= n
		x = uint(e>>8) & 15
		dist := int(e>>16) + int(b&(1<<x-1))
		b >>= x
		nb -= x
		if dist > w {
			return out, w, errDeflateCorrupt
		}

		if w+length > len(out) {
			if out, err = grow(out, w, length, limit, len(in)); err != nil {
				return out, w, err
			}
		}
		src := w - dist
		if dist >= 8 && w+length+8 <= len(out) {
			// Eight bytes at a time, overshooting into room that later
			// output overwrites: each load reads only bytes already
			// final, since they lie at least eight behind the store.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(out[w+i:], binary.LittleEndian.Uint64(out[src+i:]))
			}
			w += length
			continue
		}
		if dist >= length {
			copy(out[w:w+length], out[src:src+length])
			w += length
			continue
		}
		// Overlapping: each pass copies everything written since src,
		// so the copied run doubles until it covers length.
		for end := w + length; w < end; {
			w += copy(out[w:end], out[src:w])
		}
	}
}
