package cosmo

import (
	"math"
	"math/rand"
	"testing"
)

// checkStream holds s to rand.NewSource(seed): n draws through Uint64,
// then both re-seeded and n draws through Int63. Re-seeding s rather than
// building a new one covers a stream whose real tail is reused.
func checkStream(t *testing.T, s *stream, seed int64, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	s.Seed(seed)
	for k := 1; k <= n; k++ {
		if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 draw %d = %#x, want %#x", seed, k, got, want)
		}
	}
	ref.Seed(seed)
	s.Seed(seed)
	for k := 1; k <= n; k++ {
		if got, want := s.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 draw %d = %#x, want %#x", seed, k, got, want)
		}
	}
}

// TestStreamMatchesMathRand compares 1 000 draws, past the hand-over to
// the real source, for the seeds math/rand normalises specially (zero and
// its replacement, the modulus and its neighbours, the int64 extremes),
// 200 random ones and the seeds Generate mixes for its first particles.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311, -89482311,
		int32max, -int32max, int32max - 1, int32max + 1, -int32max - 1, 2 * int32max,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	pick := rand.New(rand.NewSource(42))
	for range 200 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	for i := range 20 {
		seeds = append(seeds, 1^int64(uint64(i)*0x9E3779B97F4A7C15)^3<<32)
	}
	var s stream
	for _, seed := range seeds {
		checkStream(t, &s, seed, 1000)
	}
}

// FuzzStream holds the stream to rand.NewSource for any seed and up to
// 2 000 draws.
func FuzzStream(f *testing.F) {
	for _, seed := range []int64{0, -1, int32max, -int32max, 89482311, math.MinInt64} {
		f.Add(seed, uint16(2000))
	}
	var s stream
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkStream(t, &s, seed, int(draws%2001))
	})
}
