// Package oracle models the activated chip the attacker buys on the
// open market (§II-B threat model). A deterministic oracle answers
// queries exactly; a probabilistic oracle implements the paper's §III
// error model — every logic gate independently inverts its output with
// probability eps per evaluation — so repeated queries with the same
// input return inconsistent answers.
package oracle

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"

	"statsat/internal/circuit"
)

// Oracle is a black-box activated chip: one Query is one application
// of an input vector to the silicon.
type Oracle interface {
	// Query applies x once and returns the (possibly noisy) outputs.
	Query(x []bool) []bool
	// NumInputs and NumOutputs describe the pinout.
	NumInputs() int
	NumOutputs() int
	// Queries returns the number of Query calls so far (attack cost
	// accounting: the paper's T_eval and Ns trade-offs count queries).
	Queries() int64
}

// Deterministic is the noise-free activated chip (used by the
// standard SAT attack and as the reference for BER measurements).
type Deterministic struct {
	c       *circuit.Circuit
	key     []bool
	scratch []bool
	queries int64
}

// NewDeterministic activates circuit c with the given correct key
// (key may be nil for unlocked netlists).
func NewDeterministic(c *circuit.Circuit, key []bool) *Deterministic {
	if len(key) != c.NumKeys() {
		panic(fmt.Sprintf("oracle: key width %d, circuit has %d key inputs", len(key), c.NumKeys()))
	}
	return &Deterministic{
		c:       c,
		key:     append([]bool(nil), key...),
		scratch: make([]bool, c.NumGates()),
	}
}

// Query implements Oracle.
func (o *Deterministic) Query(x []bool) []bool {
	o.queries++
	return o.c.Eval(x, o.key, o.scratch)
}

// NumInputs implements Oracle.
func (o *Deterministic) NumInputs() int { return o.c.NumPIs() }

// NumOutputs implements Oracle.
func (o *Deterministic) NumOutputs() int { return o.c.NumPOs() }

// Queries implements Oracle.
func (o *Deterministic) Queries() int64 { return o.queries }

// Probabilistic is the paper's noisy activated chip.
type Probabilistic struct {
	c          *circuit.Circuit
	key        []bool
	eps        float64
	rng        *rand.Rand
	src        *circuit.NoiseSource
	scratch    []bool
	blockWords int
	bscratch   circuit.BlockScratch
	blockBuf   []uint64
	queries    int64
}

// BlockQuerier is implemented by oracles that sample bit-parallel, in
// whole evaluation blocks: one QueryBlock call draws
// words×circuit.BatchLanes independent samples, so an Ns-sample
// probability estimate costs ceil(Ns/(64·words)) circuit passes
// instead of Ns scalar queries. Word column k of a block is
// bit-identical to the k-th of `words` successive one-word blocks over
// the same noise stream (circuit.EvalNoisyBlockInto's determinism
// contract), so sampling results — and therefore attack trajectories —
// are independent of the block width.
//
// The returned slice holds NumOutputs rows of `words` words (output
// j's word k at [j*words+k]) and is only valid until the next
// QueryBlock call on the same oracle: implementations may (and
// Probabilistic does) reuse one output buffer across calls to keep the
// sampling loop allocation-free. Callers that retain the words must
// copy them.
type BlockQuerier interface {
	// QueryBlock draws words×circuit.BatchLanes samples in one blocked
	// pass; words must be in [1, BlockWords()]. Each call counts as
	// words×circuit.BatchLanes queries.
	QueryBlock(x []bool, words int) []uint64
	// BlockWords reports the widest block one QueryBlock call accepts;
	// zero means none (a wrapper over a scalar-only oracle).
	BlockWords() int
}

// Blocks is the one rule for whether o samples in blocks: it returns
// o's BlockQuerier view and widest block, and o blocks exactly when
// that width is positive (zero when o does not implement BlockQuerier).
// Samplers, wrappers and tape validation all decide through it; an
// oracle that does not block is sampled with scalar Query calls.
func Blocks(o Oracle) (BlockQuerier, int) {
	if b, ok := o.(BlockQuerier); ok {
		return b, b.BlockWords()
	}
	return nil, 0
}

// NewProbabilistic activates circuit c with the correct key under
// gate error probability eps. The noise stream is seeded for
// reproducible experiments.
func NewProbabilistic(c *circuit.Circuit, key []bool, eps float64, seed int64) *Probabilistic {
	if len(key) != c.NumKeys() {
		panic(fmt.Sprintf("oracle: key width %d, circuit has %d key inputs", len(key), c.NumKeys()))
	}
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("oracle: gate error probability %v out of [0,1]", eps))
	}
	src := circuit.NewNoiseSource(seed)
	rng := rand.New(src)
	return &Probabilistic{
		c:          c,
		key:        append([]bool(nil), key...),
		eps:        eps,
		rng:        rng,
		src:        src,
		scratch:    make([]bool, c.NumGates()),
		blockWords: circuit.DefaultBlockWords(c.NumGates()),
	}
}

// Reset returns o to a fresh chip's state at gate error eps, keeping
// its buffers and block width: the query count is zero, and the noise
// stream is a copy of src's, from src's current position, draw count
// included. With src fresh from circuit.NewNoiseSource(seed), o then
// draws what NewProbabilistic(c, key, eps, seed) would. src does not
// advance, so a caller that samples the same few streams many times,
// as the §V-E estimator does at every grid eps, seeds each once and
// resets one chip to it each time.
func (o *Probabilistic) Reset(eps float64, src *circuit.NoiseSource) {
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("oracle: gate error probability %v out of [0,1]", eps))
	}
	o.eps = eps
	*o.src = *src
	o.queries = 0
}

// NoiseDraws implements NoiseCounter: the number of noise-source draws
// consumed so far (the oracle's exact position in its noise stream).
func (o *Probabilistic) NoiseDraws() uint64 { return o.src.Draws() }

// SkipNoiseDraws implements NoiseCounter: advance the noise stream by
// n draws without evaluating anything. Resume support — a freshly
// seeded oracle skipped to a recorded draw count produces the same
// noise a continuously running oracle would from that point on.
func (o *Probabilistic) SkipNoiseDraws(n uint64) { o.src.Skip(n) }

// MaxNoiseDraws implements NoiseCounter. A scalar query draws at most
// once per gate, and each block word at most once per gate and lane
// plus once to end its flip column; the bound is twice that, so the
// draws math/rand and the flip sampler redo for an out-of-range value
// (under 2⁻⁵³ of draws) never reach it.
func (o *Probabilistic) MaxNoiseDraws(words int) uint64 {
	g := uint64(o.c.NumGates())
	if words == 0 {
		return 2 * g
	}
	return 2 * uint64(words) * (circuit.BatchLanes*g + 1)
}

// Query implements Oracle: one noisy evaluation.
func (o *Probabilistic) Query(x []bool) []bool {
	o.queries++
	return o.c.EvalNoisy(x, o.key, o.eps, o.rng, o.scratch)
}

// QueryBlock implements BlockQuerier: words×circuit.BatchLanes
// independent noisy evaluations in one blocked bit-parallel pass. The
// returned slice is reused across calls (see BlockQuerier); copy it
// to retain the words.
func (o *Probabilistic) QueryBlock(x []bool, words int) []uint64 {
	if words < 1 || words > o.blockWords {
		panic(fmt.Sprintf("oracle: block width %d out of [1,%d]", words, o.blockWords))
	}
	o.queries += int64(words) * circuit.BatchLanes
	//lint:ignore bufretain o.blockBuf IS the reusable scratch the contract is about: the oracle owns it and hands out aliases; callers, not the owner, must copy
	o.blockBuf = o.c.EvalNoisyBlockInto(o.blockBuf, x, o.key, o.eps, o.src, words, &o.bscratch)
	return o.blockBuf
}

// BlockWords implements BlockQuerier: the default is
// circuit.DefaultBlockWords for the activated circuit's size.
func (o *Probabilistic) BlockWords() int { return o.blockWords }

// SetBlockWords overrides the block width cap (parity experiments and
// cache tuning; the sampled bits are width-independent either way).
func (o *Probabilistic) SetBlockWords(w int) {
	if w < 1 || w > circuit.MaxBlockWords {
		panic(fmt.Sprintf("oracle: block width %d out of [1,%d]", w, circuit.MaxBlockWords))
	}
	o.blockWords = w
}

// NumInputs implements Oracle.
func (o *Probabilistic) NumInputs() int { return o.c.NumPIs() }

// NumOutputs implements Oracle.
func (o *Probabilistic) NumOutputs() int { return o.c.NumPOs() }

// Queries implements Oracle.
func (o *Probabilistic) Queries() int64 { return o.queries }

// Eps exposes the true gate error probability (experiment harness
// only; the attacker is not entitled to it — §V-E estimates it).
func (o *Probabilistic) Eps() float64 { return o.eps }

// SignalProbs queries the oracle ns times with x and returns the
// per-output signal probabilities (eq. 1). Oracles that block (see
// Blocks) are sampled bit-parallel, BatchLanes samples per word (the
// sample count is then rounded up to a whole number of words — never
// fewer samples than requested).
//
// Cancelling ctx stops the sampling early; the probabilities are then
// normalised over the samples actually taken (best-effort, all-zero
// when cancellation preceded the first sample). Callers that must
// distinguish partial from complete data check ctx.Err() afterwards.
func SignalProbs(ctx context.Context, o Oracle, x []bool, ns int) []float64 {
	return SignalProbsInto(ctx, o, x, ns, nil)
}

// SignalProbsInto is SignalProbs with a caller-provided result buffer:
// when dst has capacity for NumOutputs values it backs the result, so
// repeated probability queries (BER sweeps, eps'_g estimation, HD
// floors) run without per-call allocation. One-counts accumulate
// directly into dst (exact in float64 for any realistic ns), so no
// intermediate counter slice is needed either.
func SignalProbsInto(ctx context.Context, o Oracle, x []bool, ns int, dst []float64) []float64 {
	if ns <= 0 {
		panic("oracle: SignalProbs needs ns >= 1")
	}
	if cap(dst) >= o.NumOutputs() {
		dst = dst[:o.NumOutputs()]
	} else {
		dst = make([]float64, o.NumOutputs())
	}
	for j := range dst {
		dst[j] = 0
	}
	total := 0
	if blq, wmax := Blocks(o); wmax > 0 {
		// Blocked sampling: ceil(ns/64) words, consumed up to wmax words
		// per circuit pass. Word columns are drawn in stream order, so
		// counts — and the query total — are bit-identical at every
		// block width.
		left := (ns + circuit.BatchLanes - 1) / circuit.BatchLanes
		for left > 0 && ctx.Err() == nil {
			wblk := wmax
			if left < wblk {
				wblk = left
			}
			words := blq.QueryBlock(x, wblk)
			for j := range dst {
				ones := 0
				for _, w := range words[j*wblk : (j+1)*wblk] {
					ones += bits.OnesCount64(w)
				}
				dst[j] += float64(ones)
			}
			total += wblk * circuit.BatchLanes
			left -= wblk
		}
	} else {
		for i := 0; i < ns && ctx.Err() == nil; i++ {
			y := o.Query(x)
			for j, b := range y {
				if b {
					dst[j]++
				}
			}
			total++
		}
	}
	if total == 0 {
		return dst
	}
	for j := range dst {
		dst[j] /= float64(total)
	}
	return dst
}

// Uncertainties converts signal probabilities to the paper's
// uncertainty measure U_i = min(P_i, 1-P_i) (eq. 2).
func Uncertainties(probs []float64) []float64 {
	return UncertaintiesInto(probs, nil)
}

// UncertaintiesInto is Uncertainties with a caller-provided result
// buffer (aliasing probs is allowed: the transform is element-wise).
func UncertaintiesInto(probs, dst []float64) []float64 {
	if cap(dst) >= len(probs) {
		dst = dst[:len(probs)]
	} else {
		dst = make([]float64, len(probs))
	}
	for i, p := range probs {
		if p <= 0.5 {
			dst[i] = p
		} else {
			dst[i] = 1 - p
		}
	}
	return dst
}

// PatternCounts queries the oracle ns times and tallies whole output
// patterns (the PSAT baseline consumes patterns, not per-bit
// probabilities). Keys are the string of '0'/'1' bytes. Oracles that
// block (see Blocks) draw the whole 64-lane words of ns in blocks and
// the remainder with scalar Query calls, so exactly ns samples are
// taken. Cancelling ctx stops the sampling early and returns the
// tallies so far.
func PatternCounts(ctx context.Context, o Oracle, x []bool, ns int) map[string]int {
	counts := make(map[string]int)
	buf := make([]byte, o.NumOutputs())
	remaining := ns
	if blq, wmax := Blocks(o); wmax > 0 {
		for remaining >= circuit.BatchLanes && ctx.Err() == nil {
			wblk := remaining / circuit.BatchLanes
			if wblk > wmax {
				wblk = wmax
			}
			words := blq.QueryBlock(x, wblk)
			for k := 0; k < wblk; k++ {
				for lane := 0; lane < circuit.BatchLanes; lane++ {
					for j := range buf {
						if words[j*wblk+k]>>uint(lane)&1 == 1 {
							buf[j] = '1'
						} else {
							buf[j] = '0'
						}
					}
					counts[string(buf)]++
				}
			}
			remaining -= wblk * circuit.BatchLanes
		}
	}
	for i := 0; i < remaining && ctx.Err() == nil; i++ {
		y := o.Query(x)
		for j, b := range y {
			if b {
				buf[j] = '1'
			} else {
				buf[j] = '0'
			}
		}
		counts[string(buf)]++
	}
	return counts
}

// PatternToBits decodes a PatternCounts key back into a bool vector.
func PatternToBits(p string) []bool {
	out := make([]bool, len(p))
	for i := range p {
		out[i] = p[i] == '1'
	}
	return out
}
