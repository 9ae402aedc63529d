package circuit

import (
	"math"
	"math/rand"
	"sync"
)

// NoiseSource is the counted noise stream of a noisy chip: the stream
// of math/rand's seeded generator, rand.NewSource(seed), plus the
// number of draws taken from it. EvalNoisyBlockInto draws its flip
// masks straight from it, and a *rand.Rand built on it (rand.New(src))
// drives scalar EvalNoisy, so one count covers both. Every Int63/Uint64
// call advances the stream by exactly one step, so the count is a
// complete description of the stream position: a fresh source skipped
// to a recorded count continues exactly where the recorded one stood
// (checkpoint and resume rely on this).
//
// It runs the generator itself. math/rand's source is an additive
// lagged-Fibonacci generator: its Uint64 adds the register word at its
// tap to the word at its feed and writes the sum back at the feed, and
// both indices step down through the 607-word register. So the word at
// the feed was written 607 outputs ago and the word at the tap 273 ago,
// and output n is x[n] = x[n−607] + x[n−273] mod 2⁶⁴ for n ≥ 607. vec
// holds 607 consecutive outputs, x[base] … x[base+606]; the first 607
// come from a math/rand source seeded to the seed (the seeding is
// math/rand's own), and refill advances all of them by the recurrence.
// The draw loop of drawFlipMasks reads vec inline instead of calling
// through a rand.Source64 interface.
type NoiseSource struct {
	vec  [rngLen]uint64
	next uint   // index in vec of the next draw; rngLen when vec is used up
	base uint64 // draws taken before vec[0]
}

// The lagged-Fibonacci generator of math/rand: x[n] = x[n−rngLen] +
// x[n−rngTap]. Int63 is Uint64 with the top bit cleared.
const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
)

// seedSources lends math/rand sources to Seed, which only reads the
// first rngLen outputs of one, so a NoiseSource never keeps a second
// 607-word register.
var seedSources = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// NewNoiseSource returns the counted stream of rand.NewSource(seed). A
// *rand.Rand built on it yields bit for bit the values of
// rand.New(rand.NewSource(seed)).
func NewNoiseSource(seed int64) *NoiseSource {
	s := new(NoiseSource)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source: it restarts the stream of
// rand.NewSource(seed) and resets the draw count.
func (s *NoiseSource) Seed(seed int64) {
	src := seedSources.Get().(rand.Source64)
	src.Seed(seed)
	for i := range s.vec {
		s.vec[i] = src.Uint64()
	}
	seedSources.Put(src)
	s.next, s.base = 0, 0
}

// refill replaces vec's outputs with the next rngLen, in place: new
// word i adds old word i and output base+rngLen+i−rngTap, which for
// the first rngTap words is still an old word (vec[i+rngLen−rngTap])
// and for the rest a new one (vec[i−rngTap]).
func (s *NoiseSource) refill() {
	v := &s.vec
	for i := 0; i < rngTap; i++ {
		v[i] += v[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		v[i] += v[i-rngTap]
	}
	s.next = 0
	s.base += rngLen
}

// Uint64 implements rand.Source64.
func (s *NoiseSource) Uint64() uint64 {
	if s.next >= rngLen {
		s.refill()
	}
	x := s.vec[s.next]
	s.next++
	return x
}

// Int63 implements rand.Source.
func (s *NoiseSource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Draws returns the number of draws taken so far.
func (s *NoiseSource) Draws() uint64 { return s.base + uint64(s.next) }

// Skip advances the stream by n draws without using them, a whole
// refill at a time.
func (s *NoiseSource) Skip(n uint64) {
	left := uint64(s.next) + n
	for left > rngLen {
		s.refill()
		left -= rngLen
	}
	s.next = uint(left)
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
// Each draw is read straight from src's block of generator outputs,
// refilled in place when it runs out, and its gap is looked up in tab,
// the gap table of eps (gapTableFor), and computed by computeGap where
// the table holds none; with a nil tab every draw is computed. src's
// position, and so its count, is written back once, at the end.
func drawFlipMasks(masks []uint64, nops, words int, eps float64, src *NoiseSource, tab *gapTable) {
	if eps >= 1 {
		fill(masks, ^uint64(0))
		return
	}
	for i := range masks {
		masks[i] = 0
	}
	limit := int64(nops) * BatchLanes
	invLog := 1 / math.Log1p(-eps)
	next := src.next
	for k := 0; k < words; k++ {
		pos := int64(-1)
		for {
			if next >= rngLen {
				src.refill()
				next = 0
			}
			x := int64(src.vec[next] & rngMask)
			next++
			g := tab.lookup(x)
			if g < 0 {
				if g = computeGap(x, invLog); g < 0 {
					continue
				}
			}
			pos += 1 + g
			if pos >= limit {
				break
			}
			masks[int(pos>>6)*words+k] |= 1 << uint(pos&63)
		}
	}
	src.next = next
}

// computeGap returns the geometric gap of the draw x = Int63(), or -1
// when x must be redrawn. The draw stands for rand.Float64's value
// u = float64(x)/2⁶³; u = 0 (whose log is undefined) is redrawn, and
// so is u = 1, which rand.Float64 itself redraws. Every other draw's
// gap is flipGap(u, invLog).
func computeGap(x int64, invLog float64) int64 {
	u := float64(x) / (1 << 63)
	if u == 0 || u == 1 {
		return -1
	}
	return flipGap(u, invLog)
}

// A gapTable is indexed by a draw's top gapBits bits: gapBuckets fine
// buckets, gapFine in each coarse bucket of the draw's top coarseBits
// bits.
const (
	gapBits       = 16
	gapBuckets    = 1 << gapBits
	coarseBits    = 13
	coarseBuckets = 1 << coarseBits
	gapFine       = gapBuckets / coarseBuckets
)

// gapTable maps fine bucket f = x>>47 of a draw x = Int63() to the gap
// every draw of the bucket has, or to -1 when the bucket's draws do
// not provably share one or their gap does not fit an int16. It is
// built for one eps by newGapTable and never written afterwards.
//
// The bucket rule. Take buckets of width 2⁻ᵏ, k = 13 (coarse) or 16
// (fine): bucket b holds x in [b·2⁶³⁻ᵏ, (b+1)·2⁶³⁻ᵏ). Both edges are
// float64 values (b < 2ᵏ), and the int-to-float conversion rounds
// monotonically, so float64(x) lies in [b·2⁶³⁻ᵏ, (b+1)·2⁶³⁻ᵏ]: a draw
// may round up to the upper edge but never past it. Dividing by 2⁶³ is
// exact, so u lies in [lo, hi] = [b·2⁻ᵏ, (b+1)·2⁻ᵏ]. With invLog < 0,
// the exact product y(u) = log(u)·invLog falls as u rises, so
// y(hi) ≤ y(u) ≤ y(lo). The gap of u (flipGap's, which is exactGap's)
// truncates the computed ŷ(u) = fl(math.Log(u)·invLog). math.Log is
// within 1 ulp of log u, at most 2⁻⁵² relative, and the product rounds
// once, 2⁻⁵³ relative, so ŷ(u) = y(u)·(1+δ) with
// |δ| ≤ ε = 3·2⁻⁵³ + 2⁻¹⁰⁵.
//
// Coarse buckets first. Their edges' logs are math.Log's (edgeLogs),
// so ŷ's bound holds at the edges too, and
//
//	ŷ(hi)·(1−ε)/(1+ε) ≤ ŷ(u) ≤ ŷ(lo)·(1+ε)/(1−ε),
//
// bounds within 6.1·2⁻⁵³ (relative) of the edge values. gapMargin =
// 2⁻⁴⁸ = 32·2⁻⁵³ widens the edge values by more than that plus the
// widened product's own rounding, 2⁻⁵³. When both widened values
// truncate to one integer g, every u in the bucket has gap g, and its
// gapFine fine entries all hold g.
//
// A coarse bucket whose widened values straddle an integer is split.
// The logs of its inner fine edges come from logApprox, flipGap's
// table-and-cubic log, within 4e-12 of log u (flipGap's comment); its
// own two edges keep math.Log's. Each edge's log is moved outward by
// fineMargin = 2⁻³², the band flipGap trusts: over fifty times that
// error, and enough to cover ŷ's relative error (3·2⁻⁵³·|log u| <
// 4e-15 for u ≥ 2⁻¹⁶) and the widened products' roundings too. A fine
// bucket holds g when (log(hi)+fineMargin)·invLog and
// (log(lo)−fineMargin)·invLog both truncate to g.
//
// Coarse bucket 0 (u can be 0) and the last coarse bucket (u can round
// to 1) are -1 in all their fine entries, so the table never answers a
// draw that computeGap redraws, and neither is a gap past
// math.MaxInt16. A coarse bucket spans log((b+1)/b)·|invLog| >
// 2⁻¹³·|invLog| in y, so when |invLog| ≥ 2¹³ (eps below about 1.2e-4)
// no coarse bucket can hold one gap and gapTableFor returns nil
// instead.
type gapTable [gapBuckets]int16

// lookup returns the gap t holds for the draw x = Int63(), or -1 when
// x's fine bucket holds none or t is nil; computeGap(x, invLog) is
// then the draw's gap.
func (t *gapTable) lookup(x int64) int64 {
	if t == nil {
		return -1
	}
	return int64(t[x>>(63-gapBits)&(gapBuckets-1)])
}

// gapMargin widens each coarse bucket's computed gap interval, and
// fineMargin each fine edge's log; see gapTable.
const (
	gapMargin  = 0x1p-48
	fineMargin = 0x1p-32
)

// edgeLogs holds math.Log(b·2⁻¹³) at index b, for every coarse bucket
// edge b = 1…8191. It does not depend on eps, so it is evaluated once
// per process, by the first table build, and a table costs one product
// per coarse edge plus logApprox at the inner fine edges of the coarse
// buckets it splits.
var edgeLogs = sync.OnceValue(func() *[coarseBuckets]float64 {
	var l [coarseBuckets]float64
	for b := 1; b < coarseBuckets; b++ {
		l[b] = math.Log(float64(b) * 0x1p-13)
	}
	return &l
})

// newGapTable builds the gap table of invLog = 1/log(1-eps). Each
// coarse edge is the lower edge of the next coarse bucket, so its
// product is formed once.
func newGapTable(invLog float64) *gapTable {
	logs := edgeLogs()
	t := new(gapTable)
	fillGaps((*[gapFine]int16)(t[:]), -1)
	fillGaps((*[gapFine]int16)(t[gapBuckets-gapFine:]), -1)
	yHi := logs[1] * invLog // ŷ at coarse bucket 1's lower edge
	for b := 1; b < coarseBuckets-1; b++ {
		yLo := yHi // ŷ at the lower edge, the larger of the two
		yHi = logs[b+1] * invLog
		row := (*[gapFine]int16)(t[b*gapFine:])
		if g := int64(yHi * (1 - gapMargin)); g == int64(yLo*(1+gapMargin)) {
			fillGaps(row, g)
			continue
		}
		lLo := logs[b]
		for f := range row {
			lHi := logs[b+1]
			if f < gapFine-1 {
				lHi = logApprox(float64(b*gapFine+f+1) * 0x1p-16)
			}
			g := int64((lHi + fineMargin) * invLog)
			if g != int64((lLo-fineMargin)*invLog) || g > math.MaxInt16 {
				g = -1
			}
			row[f] = int16(g)
			lLo = lHi
		}
	}
	return t
}

// fillGaps sets every fine entry of a coarse bucket to g, or to -1
// when g does not fit an int16.
func fillGaps(row *[gapFine]int16, g int64) {
	if g > math.MaxInt16 {
		g = -1
	}
	for f := range row {
		row[f] = int16(g)
	}
}

// gapCache shares the table of the eps last asked for across every
// noisy evaluation in the process. A table depends on eps alone and is
// never written after it is built, so sharing one changes no draw.
// Asking for another eps replaces it.
var gapCache struct {
	mu  sync.Mutex
	eps float64
	tab *gapTable
}

// gapTableFor returns the gap table of eps in (0, 1], building it
// unless eps is the one last asked for. It returns nil when eps is too
// small for any bucket to hold a single gap, and at eps = 1, where
// every lane flips and no draw is taken.
func gapTableFor(eps float64) *gapTable {
	invLog := 1 / math.Log1p(-eps)
	if eps >= 1 || -invLog*0x1p-13 >= 1 {
		return nil
	}
	gapCache.mu.Lock()
	defer gapCache.mu.Unlock()
	if gapCache.tab == nil || gapCache.eps != eps {
		gapCache.eps, gapCache.tab = eps, newGapTable(invLog)
	}
	return gapCache.tab
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
// It evaluates log u with logApprox, from a fixed 256-entry table
// instead of calling math.Log. With u = 2^e·m and m in [1, 2), the top eight fraction
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
	y := logApprox(u) * invLog
	if y >= 0 && y < 1<<52 {
		g := int64(y)
		band := -invLog * 0x1p-32
		if f := y - float64(g); f > band && f < 1-band {
			return g
		}
	}
	return exactGap(u, invLog)
}

// logApprox is flipGap's log u, for u in (0, 1): within 4e-12 of it
// (flipGap's comment has the bound). newGapTable takes it at the fine
// edges it needs.
func logApprox(u float64) float64 {
	b := math.Float64bits(u)
	t := &logTab[b>>44&0xff]
	r := (math.Float64frombits(b&(1<<52-1)|1023<<52) - t.c) * t.inv
	return float64(int64(b>>52)-1023)*math.Ln2 + t.log + r + r*r*(-1.0/2+r*(1.0/3))
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
