package circuit

import (
	"math"
	"math/rand"
)

// NoiseSource is the counted noise stream of a noisy chip: math/rand's
// seeded generator plus the number of draws taken from it.
// EvalNoisyBlockInto draws its flip masks straight from it, and a
// *rand.Rand built on it (rand.New(src)) drives scalar EvalNoisy, so
// one count covers both. Every Int63/Uint64 call advances the
// generator by exactly one step, so the count is a complete
// description of the stream position: a fresh source skipped to a
// recorded count continues exactly where the recorded one stood
// (checkpoint and resume rely on this).
type NoiseSource struct {
	src rand.Source64
	n   uint64
}

// NewNoiseSource returns the counted stream of rand.NewSource(seed).
// It stays on the 64-bit source path, so a *rand.Rand built on it
// yields bit for bit the values of rand.New(rand.NewSource(seed)).
func NewNoiseSource(seed int64) *NoiseSource {
	return &NoiseSource{src: rand.NewSource(seed).(rand.Source64)}
}

// Int63 implements rand.Source.
func (s *NoiseSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *NoiseSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

// Seed implements rand.Source; it also resets the draw count.
func (s *NoiseSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// Draws returns the number of draws taken so far.
func (s *NoiseSource) Draws() uint64 { return s.n }

// Skip advances the stream by n draws without using them.
func (s *NoiseSource) Skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.Uint64()
	}
}

// drawFlipMasks fills one flip-mask column per block word: bit l of
// masks[i*words+k] says whether op i's lane l flips in word k (row
// major — one contiguous row per op, which is what the dense apply
// loop in the eval kernels reads). Rather than producing a mask per
// (op, word) — most of which are zero at the small eps values the
// paper studies — it clears the whole array once (a memclr) and then
// walks each column's flip events directly, jumping from absolute lane
// position to absolute lane position. The rng draw sequence is one
// geometric draw per flip event, in stream order, with the leftover
// gap discarded at the end of the column: exactly the per-gate flip
// stream of the single-word reference evaluator in batch_test.go,
// which the parity tests hold it to.
//
// Each draw is rand.Float64's value, float64(Int63())/2⁶³, taken from
// the generator directly and redrawn at 0 (whose log is undefined) as
// well as at 1 (which rand.Float64 itself redraws); the column adds
// its draws to src's count once, at its end.
func drawFlipMasks(masks []uint64, nops, words int, eps float64, src *NoiseSource) {
	if eps >= 1 {
		fill(masks, ^uint64(0))
		return
	}
	for i := range masks {
		masks[i] = 0
	}
	limit := int64(nops) * BatchLanes
	invLog := 1 / math.Log1p(-eps)
	rng := src.src
	for k := 0; k < words; k++ {
		var n uint64
		pos := int64(-1)
		for {
			n++
			u := float64(rng.Int63()) / (1 << 63)
			if u == 0 || u == 1 {
				continue
			}
			pos += 1 + flipGap(u, invLog)
			if pos >= limit {
				break
			}
			masks[int(pos>>6)*words+k] |= 1 << uint(pos&63)
		}
		src.n += n
	}
}

// maxFlipGap saturates the geometric gap. Any gap at or past a
// column's lane count (64 lanes per op) ends the column, so every gap
// from here up means the same thing, and pos+1+gap cannot wrap.
// Without it, a product past 2⁶³ (eps ≲ 1e-19) would convert to an
// implementation-defined int64 (MinInt64 on amd64), which the clamp at
// zero would make a flip.
const maxFlipGap = 1 << 62

// flipGap returns the geometric gap of one flip draw: the number of
// unflipped lanes before the next flip, for u uniform in (0, 1) and
// invLog = 1/log(1-eps). The gap is defined by exactGap,
// int64(math.Log(u)*invLog) saturated at maxFlipGap, and flipGap
// returns exactly that value, only cheaper.
//
// It evaluates log u from a fixed 256-entry table instead of calling
// math.Log. With u = 2^e·m and m in [1, 2), the top eight fraction
// bits of m pick c = 1 + (j+½)/256, so r = (m-c)/c has |r| < 2⁻⁹, and
//
//	log u ≈ e·ln2 + log c + r - r²/2 + r³/3.
//
// m-c is exact. Truncating the series after r³ errs by less than
// |r|⁴/4·(1+2⁻⁸) < 3.7e-12. Every other step (ln2 and the table
// entries rounded to float64, the rounded r, the products and sums)
// errs by a few units of 2⁻⁵³ relative to |log u| ≤ 63·ln2, plus
// 4e-16. math.Log is within an ulp of log u, and both products with
// invLog round once. So y = approx·invLog differs from
// math.Log(u)·invLog by less than 4e-12·|invLog|, and the band
// 2⁻³²·|invLog| ≈ 2.3e-10·|invLog| is over fifty times that. Whenever
// y lies farther than the band from every integer, both products
// truncate to the same integer. A draw whose y falls outside
// [0, 2⁵²), or inside the band, takes exactGap, so no gap, mask bit
// or draw count differs from the math.Log definition. The fallback
// is rare: a draw lands in the band with probability about
// 2·2⁻³²·|invLog|, about 5e-7 at eps = 1e-3 and 5e-8 at eps = 1e-2.
func flipGap(u, invLog float64) int64 {
	b := math.Float64bits(u)
	t := &logTab[b>>44&0xff]
	r := (math.Float64frombits(b&(1<<52-1)|1023<<52) - t.c) * t.inv
	y := (float64(int64(b>>52)-1023)*math.Ln2 + t.log + r + r*r*(-1.0/2+r*(1.0/3))) * invLog
	if y >= 0 && y < 1<<52 {
		g := int64(y)
		band := -invLog * 0x1p-32
		if f := y - float64(g); f > band && f < 1-band {
			return g
		}
	}
	return exactGap(u, invLog)
}

// exactGap is the definition flipGap reproduces: the truncated
// product of math.Log(u) and invLog, saturated at maxFlipGap. Both
// factors are negative, so the product is positive.
func exactGap(u, invLog float64) int64 {
	y := math.Log(u) * invLog
	if !(y < maxFlipGap) {
		return maxFlipGap
	}
	return int64(y)
}

// logTab holds, for each of the 256 buckets of a mantissa in [1, 2),
// the bucket's centre c = 1 + (j+½)/256, log c and 1/c. It does not
// depend on eps, so one table serves every noisy evaluation.
var logTab = func() (tab [256]struct{ c, log, inv float64 }) {
	for j := range tab {
		c := 1 + (float64(j)+0.5)/256
		tab[j].c, tab[j].log, tab[j].inv = c, math.Log(c), 1/c
	}
	return tab
}()
