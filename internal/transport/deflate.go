package transport

// Deflate in place: the send half of the flate and delta+flate codecs,
// the mirror of inflate. compress/flate's BestSpeed writer copies its
// input into a window, turns every literal byte into a 4-byte token,
// counts the tokens in a second pass and writes each one through a small
// byte buffer into an io.Writer. A payload to send is already one []byte,
// and its encoding has a known home. deflate codes the payload where it
// lies: matches are found in the payload itself, a block keeps one
// sequence entry per literal run plus match, literals are counted and
// then coded straight from the payload through one fused table, and the
// bit buffer lives in locals over the output slice.
//
// The match model is BestSpeed's (compress/flate's deflateFast, after
// Snappy), so the wire stays the size it was: greedy, one probe of a
// 4-byte hash into 2^14 slots, a 32 KiB window, the skip that speeds
// through incompressible runs, one block per 64 KiB of input, and a
// stored block when that is no larger. Each block's codes are built from
// its own counts (Moffat–Katajainen, then a length limit that keeps the
// Kraft sum at one). The stream is raw RFC 1951: inflate and
// compress/flate's reader both decode it (FuzzDeflate holds it to both).

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

const (
	encHashBits = 14
	encWindow   = 1 << 15 // farthest back a match may reach
	encMaxMatch = 258
	// encBlock is the input one block covers: the most a stored block
	// holds, so a block that does not compress is stored whole.
	encBlock = 1<<16 - 1
	// encMargin is the tail of a block that never starts a match, as in
	// deflateFast; it also keeps the matcher's 8-byte loads in bounds.
	encMargin        = 15
	encMinMatchBlock = encMargin + 2

	maxLitBits = 15 // longest literal/length or distance code
	maxCLBits  = 7  // longest code-length code
	numCL      = 19 // code-length symbols
)

// A code table entry is the symbol's code, bit-reversed so it can be
// written least-significant bit first, in bits 0–15 and its length in
// bits 16–31: one load gives both.
const codeMask = 1<<16 - 1

// lenSym maps a match length (3–258) to its length symbol less 257.
var lenSym = func() (t [encMaxMatch + 1]uint8) {
	for s := range lenBase {
		for l := int(lenBase[s]); l < int(lenBase[s])+1<<lenExtra[s] && l <= encMaxMatch; l++ {
			t[l] = uint8(s) // ascending, so 258 ends as symbol 28, not 27
		}
	}
	return t
}()

// distSyms maps a distance less one to its distance symbol: below 256
// directly, above it by the distance's bits 7 and up, which is exact
// because every symbol from 16 on spans a multiple of 128 (zlib's
// _dist_code).
var distSyms = func() (t [512]uint8) {
	for s := range distBase {
		lo := int(distBase[s]) - 1
		for d := lo; d < lo+1<<distExtra[s]; d++ {
			if d < 256 {
				t[d] = uint8(s)
			} else {
				t[256+d>>7] = uint8(s)
			}
		}
	}
	return t
}()

func distSym(d uint32) uint8 {
	if d <= 256 {
		return distSyms[d-1]
	}
	return distSyms[256+(d-1)>>7]
}

// seq is one literal run and the match after it; the last sequence of a
// block is its literal tail, with mlen 0.
type seq struct {
	lits uint32 // literal bytes before the match
	mlen uint16
	dist uint16
}

// deflater holds an encoder's match table, sequences and code tables
// across payloads, so a steady stream encodes with no allocation. The
// zero value is ready to use.
type deflater struct {
	table    [1 << encHashBits]uint32 // last position seen per hash, mod 2³²
	seqs     []seq
	litFreq  [numLit]uint32
	distFreq [numDist]uint32
	clFreq   [numCL]uint32
	litCode  [numLit]uint32
	distCode [numDist]uint32
	clCode   [numCL]uint32
	// cl is the block's code lengths, literal/length then distance, and
	// then, run-length coded in place, the header's code-length symbols.
	cl    [numLit + numDist + 1]uint8
	keys  [numLit]uint32 // freq<<16 | sym, for sorting by frequency
	depth [numLit]int32  // code lengths in keys' order
}

// bitOut writes a DEFLATE stream least-significant bit first into buf,
// whose bytes from w on are scratch: each flush stores a whole word there
// and advances w past the complete bytes only.
type bitOut struct {
	buf  []byte
	w    int
	bits uint64
	n    uint // pending bits, < 32 between puts
}

func (o *bitOut) put(v uint64, n uint) {
	o.bits |= v << o.n
	o.n += n
	if o.n >= 32 {
		o.flush()
	}
}

func (o *bitOut) flush() {
	binary.LittleEndian.PutUint64(o.buf[o.w:], o.bits)
	o.w += int(o.n >> 3)
	o.bits >>= o.n &^ 7
	o.n &= 7
}

// reserve makes room for nbits more bits and the word a flush stores.
func (o *bitOut) reserve(nbits int) {
	need := (int(o.n)+nbits+7)/8 + 8
	if len(o.buf)-o.w < need {
		o.buf = slices.Grow(o.buf[:o.w], need)
		o.buf = o.buf[:cap(o.buf)]
	}
}

// deflate appends src as one raw DEFLATE stream to dst and returns the
// result. dst's bytes are kept; its capacity is reused and grown only
// when the encoding outgrows it. The stream never exceeds
// len(src) + 5·⌈len(src)/65535⌉ + 5 bytes, what storing every block costs.
func (z *deflater) deflate(dst, src []byte) []byte {
	// A fresh table per payload: the encoding depends on src alone, so
	// the hub's shared bytes equal what any lone Conn would send.
	clear(z.table[:])
	o := bitOut{buf: dst[:cap(dst)], w: len(dst)}
	for lo := 0; ; lo += encBlock {
		hi := min(lo+encBlock, len(src))
		z.block(&o, src, lo, hi, hi == len(src))
		if hi == len(src) {
			break
		}
	}
	if o.n > 0 {
		o.flush()
		o.w++
	}
	return o.buf[:o.w]
}

// block codes src[lo:hi] as one block: dynamic Huffman, or stored when
// that is no larger.
func (z *deflater) block(o *bitOut, src []byte, lo, hi int, final bool) {
	z.match(src, lo, hi)
	z.litFreq[256] = 1 // end of block
	nlit := numLit
	for z.litFreq[nlit-1] == 0 {
		nlit--
	}
	ndist := numDist
	for ndist > 0 && z.distFreq[ndist-1] == 0 {
		ndist--
	}
	if ndist == 0 {
		// A block with no match still declares one distance code.
		z.distFreq[0], ndist = 1, 1
	}
	size := 3 + 5 + 5 + 4 +
		z.build(z.litCode[:nlit], z.litFreq[:nlit], maxLitBits) +
		z.build(z.distCode[:ndist], z.distFreq[:ndist], maxLitBits)
	for s, x := range lenExtra {
		size += int(z.litFreq[257+s]) * int(x)
	}
	for s, x := range distExtra[:ndist] {
		size += int(z.distFreq[s]) * int(x)
	}
	ncl, clSize := z.codeLengths(nlit, ndist)
	size += clSize

	fin := uint64(0)
	if final {
		fin = 1
	}
	// A stored block starts on the byte after its 3 header bits.
	stored := 3 + (8-(int(o.n)+3)%8)%8 + 32 + 8*(hi-lo)
	if stored <= size {
		o.reserve(stored)
		o.put(fin, 3)
		o.flush()
		o.w += int(o.n+7) >> 3
		o.bits, o.n = 0, 0
		binary.LittleEndian.PutUint16(o.buf[o.w:], uint16(hi-lo))
		binary.LittleEndian.PutUint16(o.buf[o.w+2:], ^uint16(hi-lo))
		o.w += 4 + copy(o.buf[o.w+4:], src[lo:hi])
		return
	}
	o.reserve(size)
	o.put(fin|2<<1, 3)
	o.put(uint64(nlit-257), 5)
	o.put(uint64(ndist-1), 5)
	o.put(uint64(ncl-4), 4)
	for _, s := range clOrder[:ncl] {
		o.put(uint64(z.clCode[s]>>16), 3)
	}
	for i := 0; i < len(z.cl) && z.cl[i] != 0xff; i++ {
		s := z.cl[i]
		e := z.clCode[s]
		o.put(uint64(e&codeMask), uint(e>>16))
		if s >= 16 {
			i++
			o.put(uint64(z.cl[i]), [3]uint{2, 3, 7}[s-16])
		}
	}
	z.emit(o, src, lo)
}

// match finds src[lo:hi]'s matches, BestSpeed's way, and fills z.seqs,
// z.litFreq and z.distFreq. A match reaches back up to encWindow bytes,
// into earlier blocks too, and ends inside this one.
func (z *deflater) match(src []byte, lo, hi int) {
	seqs := z.seqs[:0]
	lf, df := &z.litFreq, &z.distFreq
	clear(lf[:])
	clear(df[:])
	next := lo // first byte not yet in a sequence
	if hi-lo < encMinMatchBlock {
		goto tail
	}
	{
		limit := hi - encMargin
		s := lo
		cv := load32(src, s)
		for {
			// Probe one position per step, the step growing by one for
			// every 32 bytes without a match. The table holds positions
			// mod 2³², so d is the distance back and a stale entry fails
			// the window check or the byte check.
			skip := 32
			ns := s
			h := hash4(cv)
			var d uint32
			for {
				s = ns
				ns = s + skip>>5
				skip += skip >> 5
				if ns > limit {
					goto tail
				}
				d = uint32(s) - z.table[h]
				z.table[h] = uint32(s)
				now := load32(src, ns)
				if d-1 < encWindow && load32(src, s-int(d)) == cv {
					break
				}
				cv, h = now, hash4(now)
			}
			for _, c := range src[next:s] {
				lf[c]++
			}
			for {
				// Four bytes at s match s-d: extend, and take the match.
				end := min(s+encMaxMatch, hi)
				l := 4 + matchLen(src[s+4:end], src[s-int(d)+4:])
				seqs = append(seqs, seq{lits: uint32(s - next), mlen: uint16(l), dist: uint16(d)})
				lf[257+int(lenSym[l])]++
				df[distSym(d)]++
				s += l
				next = s
				if s >= limit {
					goto tail
				}
				// Hash the match's last byte and the next one; when the
				// next one matches too, take that match at once.
				x := load64(src, s-1)
				z.table[hash4(uint32(x))] = uint32(s - 1)
				x >>= 8
				h = hash4(uint32(x))
				d = uint32(s) - z.table[h]
				z.table[h] = uint32(s)
				if d-1 >= encWindow || load32(src, s-int(d)) != uint32(x) {
					cv = uint32(x >> 8)
					s++
					break
				}
			}
		}
	}
tail:
	for _, c := range src[next:hi] {
		lf[c]++
	}
	z.seqs = append(seqs, seq{lits: uint32(hi - next)})
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }
func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }
func hash4(u uint32) uint32         { return u * 0x1e35a7bd >> (32 - encHashBits) }

// matchLen counts the leading bytes a and b share, up to len(a), eight
// at a time; b is at least as long as a.
func matchLen(a, b []byte) int {
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := load64(a, n) ^ load64(b, n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// emit writes the block's sequences, literals straight from src from lo
// on, and its end-of-block code. The bit buffer lives in locals: after a
// flush at most 7 bits wait, so three literals (≤ 45 bits) or one match
// (≤ 48: 15+5 length and 15+13 distance bits) fit before the next.
func (z *deflater) emit(o *bitOut, src []byte, lo int) {
	lc, dc := &z.litCode, &z.distCode
	buf, w, b, nb := o.buf, o.w, o.bits, o.n
	p := lo
	for _, q := range z.seqs {
		lits := src[p : p+int(q.lits)]
		p += int(q.lits)
		w, b, nb = putLits(lc, lits, buf, w, b, nb)
		if q.mlen == 0 {
			break
		}
		m, d := int(q.mlen), uint32(q.dist)
		ls := lenSym[m]
		e := lc[257+int(ls)]
		b |= uint64(e&codeMask) << (nb & 63)
		nb += uint(e >> 16)
		b |= uint64(m-int(lenBase[ls])) << (nb & 63)
		nb += uint(lenExtra[ls])
		ds := distSym(d)
		e = dc[ds]
		b |= uint64(e&codeMask) << (nb & 63)
		nb += uint(e >> 16)
		b |= uint64(d-uint32(distBase[ds])) << (nb & 63)
		nb += uint(distExtra[ds])
		p += m
		binary.LittleEndian.PutUint64(buf[w:], b)
		w += int(nb >> 3)
		b >>= nb & 56
		nb &= 7
	}
	e := lc[256]
	b |= uint64(e&codeMask) << (nb & 63)
	nb += uint(e >> 16)
	o.w, o.bits, o.n = w, b, nb
	o.flush()
}

// putLits codes lits through lc after the nb bits pending in b, storing
// whole words at buf[w:], and returns the new w, b and nb, with nb ≤ 7.
// Three codes are joined before they meet the bit buffer, so only one
// shift and one add per three wait on the codes before; the shift
// counts are masked so they compile to bare shifts.
func putLits(lc *[numLit]uint32, lits, buf []byte, w int, b uint64, nb uint) (int, uint64, uint) {
	for len(lits) >= 3 {
		e0, e1, e2 := uint64(lc[lits[0]]), uint64(lc[lits[1]]), uint64(lc[lits[2]])
		lits = lits[3:]
		n0 := e0 >> 16
		n01 := n0 + e1>>16
		b |= (e0&codeMask | (e1&codeMask)<<(n0&63) | (e2&codeMask)<<(n01&63)) << (nb & 63)
		nb += uint(n01 + e2>>16)
		binary.LittleEndian.PutUint64(buf[w:], b)
		w += int(nb >> 3)
		b >>= nb & 56
		nb &= 7
	}
	for _, c := range lits {
		e := lc[c]
		b |= uint64(e&codeMask) << (nb & 63)
		nb += uint(e >> 16)
	}
	binary.LittleEndian.PutUint64(buf[w:], b)
	w += int(nb >> 3)
	return w, b >> (nb & 56), nb & 7
}

// codeLengths lays out the block's code lengths — nlit literal/length,
// then ndist distance — as the header's run-length symbols in z.cl
// (ended by 0xff), builds their code into z.clCode, and returns how many
// code-length code lengths the header lists and the bits the lengths
// cost, their lists and extra bits included.
func (z *deflater) codeLengths(nlit, ndist int) (ncl, size int) {
	cl := z.cl[:]
	for i, e := range z.litCode[:nlit] {
		cl[i] = uint8(e >> 16)
	}
	for i, e := range z.distCode[:ndist] {
		cl[nlit+i] = uint8(e >> 16)
	}
	n := nlit + ndist
	clear(z.clFreq[:])
	// Runs: 16 repeats the last length 3–6 times, 17 and 18 write 3–10
	// and 11–138 zeros. The symbols never outrun the lengths they read,
	// so they overwrite cl in place.
	w := 0
	for r := 0; r < n; {
		l := cl[r]
		run := 1
		for r+run < n && cl[r+run] == l {
			run++
		}
		r += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				cl[w], cl[w+1] = 18, uint8(min(run, 138)-11)
				w += 2
				z.clFreq[18]++
			}
			if run >= 3 {
				cl[w], cl[w+1] = 17, uint8(run-3)
				w += 2
				z.clFreq[17]++
				run = 0
			}
		} else {
			cl[w] = l
			w++
			z.clFreq[l]++
			for run--; run >= 3; run -= min(run, 6) {
				cl[w], cl[w+1] = 16, uint8(min(run, 6)-3)
				w += 2
				z.clFreq[16]++
			}
		}
		for ; run > 0; run-- {
			cl[w] = l
			w++
			z.clFreq[l]++
		}
	}
	cl[w] = 0xff
	size = z.build(z.clCode[:], z.clFreq[:], maxCLBits) +
		2*int(z.clFreq[16]) + 3*int(z.clFreq[17]) + 7*int(z.clFreq[18])
	ncl = numCL
	for ncl > 4 && z.clCode[clOrder[ncl-1]] == 0 {
		ncl--
	}
	return ncl, size + 3*ncl
}

// build fills code with a canonical Huffman code for freq, no code
// longer than limit, and returns the bits the symbols cost under it. A
// lone symbol gets a 1-bit code, as zlib does and both decoders accept.
func (z *deflater) build(code, freq []uint32, limit int32) int {
	keys := z.keys[:0]
	for s, f := range freq {
		if f != 0 {
			keys = append(keys, f<<16|uint32(s))
		}
	}
	clear(code)
	switch len(keys) {
	case 0:
		return 0
	case 1:
		code[keys[0]&codeMask] = 1 << 16
		return int(keys[0] >> 16)
	}
	slices.Sort(keys)
	depth := z.depth[:len(keys)]
	for i, k := range keys {
		depth[i] = int32(k >> 16)
	}
	minRedundancy(depth)
	if depth[0] > limit {
		limitDepth(depth, limit)
	}
	var count [maxLitBits + 1]uint32
	size := 0
	for i, k := range keys {
		code[k&codeMask] = uint32(depth[i]) << 16
		count[depth[i]]++
		size += int(k>>16) * int(depth[i])
	}
	var next [maxLitBits + 1]uint32
	for l, c := 1, uint32(0); l <= maxLitBits; l++ {
		c = (c + count[l-1]) << 1
		next[l] = c
	}
	for s, e := range code {
		if l := e >> 16; l != 0 {
			code[s] |= uint32(bits.Reverse16(uint16(next[l]))) >> (16 - l)
			next[l]++
		}
	}
	return size
}

// minRedundancy turns a, n ≥ 2 weights in ascending order, into the
// depths of an optimal prefix code for them, in place (Moffat and
// Katajainen, "In-place calculation of minimum-redundancy codes", 1995).
// The depths come out non-increasing.
func minRedundancy(a []int32) {
	n := int32(len(a))
	// Combine the two lightest of the leaves and the internal nodes
	// formed so far; an internal node's slot ends up holding its
	// parent's index.
	a[0] += a[1]
	root, leaf := int32(0), int32(2)
	for next := int32(1); next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = next
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || root < next && a[root] < a[leaf] {
			a[next] += a[root]
			a[root] = next
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Parent indices become internal depths.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	// Internal depths become leaf depths.
	avail, used, depth := int32(1), int32(0), int32(0)
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, depth, used = 2*used, depth+1, 0
	}
}

// limitDepth caps the non-increasing depths of a complete code at limit
// and keeps the code complete: while leaves sit below limit, two of the
// deepest move up, one to replace their parent and one to pair with a
// leaf moved down from the deepest level that has room. Each move keeps
// the Kraft sum at exactly one. Depths are then handed back out, deepest
// to the lightest symbols.
func limitDepth(a []int32, limit int32) {
	var count [numLit]int32
	for _, d := range a {
		count[d]++
	}
	for d := a[0]; d > limit; d-- {
		for count[d] > 0 {
			j := d - 2
			for count[j] == 0 {
				j--
			}
			count[d] -= 2
			count[d-1]++
			count[j+1] += 2
			count[j]--
		}
	}
	i := 0
	for d := limit; d > 0; d-- {
		for c := count[d]; c > 0; c-- {
			a[i] = d
			i++
		}
	}
}
