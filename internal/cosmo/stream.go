package cosmo

import "math/rand"

// math/rand's Source (rng.go) is an additive lagged-Fibonacci generator
// over a 607-word register. Seeding fills word i from three consecutive
// steps of a Lehmer generator, x_{n+1} = 48271·x_n mod (2³¹−1), run from
// the seed, XORed with a fixed "cooked" word:
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ cooked[i]
//
// which costs 1 841 Lehmer steps and a 4.9 KB register before the first
// draw. Draw k (from 1) adds vec[334−k] and vec[607−k] (indices mod 607)
// and stores the sum over vec[334−k]. Up to draw 273 both words it reads
// are still the seeded ones, and x_n = seed·48271ⁿ mod (2³¹−1) is one
// multiplication by a tabulated power, so a draw there costs six of them.
// A generator particle makes a handful of draws and is re-seeded; stream
// gives it math/rand's exact sequence without building the register.
const (
	rngLen   = 607             // register words
	rngTap   = 273             // lag between the two words a draw adds
	rngFeed  = rngLen - rngTap // word the first draw writes, plus one
	int32max = 1<<31 - 1       // the Lehmer modulus
)

// seedPow[n] is 48271ⁿ mod (2³¹−1): x_n = seed·seedPow[n] mod (2³¹−1).
var seedPow = func() (pow [3*rngLen + 21]uint64) {
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = pow[n-1] * 48271 % int32max
	}
	return pow
}()

// seedBits is register word i of a source seeded with s (normalised to
// [1, 2³¹−1)), before the cooked word is XORed in.
func seedBits(s uint64, i int) uint64 {
	p := seedPow[21+3*i:]
	return s*p[0]%int32max<<40 ^ s*p[1]%int32max<<20 ^ s*p[2]%int32max
}

// word is register word i of a source seeded with s.
func word(s uint64, i int) uint64 { return seedBits(s, i) ^ cooked[i] }

// cooked is math/rand's table of cooked register words, recovered from
// the first 607 draws o₁…o₆₀₇ of rand.NewSource(1) rather than copied.
// Each draw is a sum whose one unknown term is a seeded word v[j]:
// draws 274…334 add v[60…0] to the draw 273 before, draws 335…607 add
// v[606…334] to the draw 273 before, and draws 1…273 add v[333…61] to
// v[606…334]. Subtracting recovers v, and XORing off seed 1's Lehmer bits
// leaves the cooked words.
var cooked = func() (c [rngLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var o [rngLen + 1]uint64
	for k := 1; k <= rngLen; k++ {
		o[k] = src.Uint64()
	}
	for j := 0; j < rngFeed-rngTap; j++ {
		c[j] = o[rngFeed-j] - o[rngFeed-rngTap-j]
	}
	for j := rngFeed; j < rngLen; j++ {
		c[j] = o[rngFeed+rngLen-j] - o[2*rngFeed-j]
	}
	for j := rngFeed - rngTap; j < rngFeed; j++ {
		c[j] = o[rngFeed-j] - c[rngTap+j]
	}
	for j := range c {
		c[j] ^= seedBits(1, j)
	}
	return c
}()

// stream is a rand.Source64 whose output is bit-identical to
// rand.NewSource(seed)'s for every seed and any number of draws, but
// which seeds in O(1) and computes only the register words it reads.
// Past draw 273 the words it would read have been overwritten, so it
// hands over to a real rand.Source advanced to the same point; the cosmo
// generator never draws that far from one seed.
type stream struct {
	seed  uint64        // normalised as math/rand does, in [1, 2³¹−1)
	draws int           // draws since Seed
	tail  rand.Source64 // a real source, used from draw 274 on
}

// Seed implements rand.Source.
func (s *stream) Seed(seed int64) {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed, s.draws = uint64(seed), 0
}

// Int63 implements rand.Source.
func (s *stream) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 implements rand.Source64.
func (s *stream) Uint64() uint64 {
	s.draws++
	if k := s.draws; k <= rngTap {
		return word(s.seed, rngFeed-k) + word(s.seed, rngLen-k)
	}
	if s.draws == rngTap+1 {
		if s.tail == nil {
			s.tail = rand.NewSource(int64(s.seed)).(rand.Source64)
		} else {
			s.tail.Seed(int64(s.seed))
		}
		for range rngTap {
			s.tail.Uint64()
		}
	}
	return s.tail.Uint64()
}
