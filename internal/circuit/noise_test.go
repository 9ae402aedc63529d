package circuit

import (
	"math/rand"
	"sync"
	"testing"
)

// noiseSeeds are the seeds the stream tests run: zero (which math/rand
// maps to a fixed seed of its own), a negative seed, and seeds at and
// past 2³¹, which math/rand reduces modulo 2³¹−1.
var noiseSeeds = []int64{0, -987654321, 1 << 31, 1<<40 + 12345}

// sameStream draws n values from s and ref alike, Int63 or Uint64 as a
// fixed pattern picks, and fails at the first that differs.
func sameStream(t *testing.T, what string, s *NoiseSource, ref rand.Source64, n int) {
	t.Helper()
	pick := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		if pick.Intn(3) == 0 {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("%s: draw %d (Int63) is %#x, want %#x", what, i, got, want)
			}
		} else if got, want := s.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("%s: draw %d (Uint64) is %#x, want %#x", what, i, got, want)
		}
	}
}

// newRef returns math/rand's own source for seed.
func newRef(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

// TestNoiseSourceMatchesMathRand holds the in-place generator to
// math/rand's source, draw for draw, over 1.2 M interleaved Int63 and
// Uint64 draws per seed (about 2,000 refills), and checks the count.
// Seed must restart the stream of its seed and zero the count.
func TestNoiseSourceMatchesMathRand(t *testing.T) {
	const n = 1_200_000
	for _, seed := range noiseSeeds {
		s := NewNoiseSource(seed)
		sameStream(t, "fresh", s, newRef(seed), n)
		if s.Draws() != n {
			t.Fatalf("seed %d: %d draws counted, want %d", seed, s.Draws(), n)
		}
		s.Seed(seed + 1)
		if s.Draws() != 0 {
			t.Fatalf("seed %d: %d draws after Seed, want 0", seed, s.Draws())
		}
		sameStream(t, "reseeded", s, newRef(seed+1), 5000)
	}
}

// TestNoiseSourceSkip checks Skip on both sides of each refill: from
// a fresh source and from one a few draws in, to just before, at and
// just past the end of the first block and of the second, and far on.
func TestNoiseSourceSkip(t *testing.T) {
	for _, seed := range noiseSeeds {
		for _, pre := range []uint64{0, 1, 606} {
			for _, n := range []uint64{0, 1, 606, 607, 608, 1214, 1_000_000} {
				s, ref := NewNoiseSource(seed), newRef(seed)
				for i := uint64(0); i < pre; i++ {
					s.Uint64()
				}
				s.Skip(n)
				for i := uint64(0); i < pre+n; i++ {
					ref.Uint64()
				}
				if got := s.Draws(); got != pre+n {
					t.Fatalf("seed %d: %d draws then Skip(%d) counts %d", seed, pre, n, got)
				}
				sameStream(t, "skipped", s, ref, 1500)
			}
		}
	}
}

// TestNoiseSourceScalarEval drives scalar EvalNoisy through
// rand.New(src), the oracle's scalar path: every output must match
// the same evaluations over rand.New(rand.NewSource(seed)).
func TestNoiseSourceScalarEval(t *testing.T) {
	c := randomCircuit(8, 10, 200, 6)
	pi := c.RandomInputs(rand.New(rand.NewSource(1)))
	for _, seed := range noiseSeeds {
		got, want := rand.New(NewNoiseSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 400; i++ {
			a, b := c.EvalNoisy(pi, nil, 0.05, got, nil), c.EvalNoisy(pi, nil, 0.05, want, nil)
			for j := range b {
				if a[j] != b[j] {
					t.Fatalf("seed %d: evaluation %d output %d is %v, want %v", seed, i, j, a[j], b[j])
				}
			}
		}
	}
}

// TestNoiseSourceConcurrentConstruction builds sources on eight
// goroutines at once, so they share the pool of seeding sources, and
// each source's opening draws must equal a sequential build's. CI
// runs it under -race -count=10.
func TestNoiseSourceConcurrentConstruction(t *testing.T) {
	const goroutines, perG, draws = 8, 40, 700
	want := make([][]uint64, goroutines*perG)
	for i := range want {
		s := NewNoiseSource(int64(i) * 7919)
		want[i] = make([]uint64, draws)
		for k := range want[i] {
			want[i][k] = s.Uint64()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < perG; r++ {
				i := r*goroutines + g
				s := NewNoiseSource(int64(i) * 7919)
				for k, w := range want[i] {
					if got := s.Uint64(); got != w {
						t.Errorf("goroutine %d source %d: draw %d is %#x, want %#x", g, i, k, got, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzNoiseSource holds the generator to math/rand for any seed, after
// any skip up to a few refills, over a run of interleaved draws.
func FuzzNoiseSource(f *testing.F) {
	for _, seed := range noiseSeeds {
		f.Add(seed, uint16(0), uint16(1000))
		f.Add(seed, uint16(606), uint16(2))
		f.Add(seed, uint16(1214), uint16(700))
	}
	f.Fuzz(func(t *testing.T, seed int64, skip, count uint16) {
		s, ref := NewNoiseSource(seed), newRef(seed)
		s.Skip(uint64(skip))
		for i := 0; i < int(skip); i++ {
			ref.Uint64()
		}
		if s.Draws() != uint64(skip) {
			t.Fatalf("Skip(%d) counts %d draws", skip, s.Draws())
		}
		sameStream(t, "fuzzed", s, ref, int(count%4096))
	})
}
