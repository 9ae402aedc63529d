package circuit

import "fmt"

// BatchLanes is the number of independent samples evaluated per
// block word: one per bit of a machine word.
const BatchLanes = 64

// MaxBlockWords bounds the block width of EvalNoisyBlockInto: eight
// 64-bit words per wire, i.e. 512 Monte-Carlo lanes per pass.
const MaxBlockWords = 8

// blockCacheBudget is the target footprint of one blocked pass: wire
// words plus flip-mask words should stay within a mid-level-cache
// sized budget so a pass streams instead of thrashing. 8 MiB keeps
// W=8 for everything up to ~65k gates and degrades gracefully (W=4,
// then 2, then 1) beyond that; at 100k+ gates even a single-word pass
// no longer fits L2, so the narrower block costs nothing and the win
// comes from the compiled schedule instead.
const blockCacheBudget = 8 << 20

// DefaultBlockWords returns the recommended block width for a circuit
// with the given gate count: the largest power-of-two W ≤ MaxBlockWords
// whose wire + mask footprint (two uint64 arrays of numGates×W) fits
// blockCacheBudget, and at least 1.
func DefaultBlockWords(numGates int) int {
	if numGates < 1 {
		numGates = 1
	}
	for w := MaxBlockWords; w > 1; w /= 2 {
		if numGates*16*w <= blockCacheBudget {
			return w
		}
	}
	return 1
}

// BlockScratch owns the wire and flip-mask buffers of blocked noisy
// evaluation. A zero BlockScratch is ready for use; buffers grow on
// demand and are reused across calls, so one scratch per oracle keeps
// the sampling hot path allocation-free at any block width. It also
// keeps the gap table of the last eps it drew flips at: the process
// shares only the table of the eps last asked for, so scratches drawing
// at different eps at once would otherwise rebuild one at nearly every
// pass. A BlockScratch is not safe for concurrent use.
type BlockScratch struct {
	wires []uint64
	masks []uint64

	gapEps float64 // eps of gaps; 0 (never drawn at) until the first noisy pass
	gaps   *gapTable
}

// gapTable returns the gap table of eps in (0, 1], remembering it.
func (s *BlockScratch) gapTable(eps float64) *gapTable {
	if s.gapEps != eps {
		s.gaps, s.gapEps = gapTableFor(eps), eps
	}
	return s.gaps
}

func grow(buf []uint64, n int) []uint64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]uint64, n)
}

// EvalNoisyBlockInto evaluates words×BatchLanes independent noisy
// samples of the circuit in one blocked bit-parallel pass: every wire
// is a row of `words` 64-bit machine words, each bit lane an
// independent Monte-Carlo sample under the paper's per-gate error
// model. All lanes share the same primary-input and key values —
// exactly the oracle-sampling workload of eq. 1 — so a
// signal-probability query with Ns samples costs ceil(Ns/(64·words))
// full-circuit passes instead of Ns. Gate flips are drawn from src
// with geometric skipping: the expected number of draws per gate and
// word is 64·eps + O(1), not 64.
//
// The result holds NumPOs rows: output i's word k sits at
// out[i*words+k]. Determinism contract: with the same stream state,
// word column k of a blocked pass is bit-identical to the k-th of
// `words` successive single-word passes over rand.New(src) — the
// per-word flip streams are drawn in exactly that order — so attack
// trajectories (keys, DIPs, iteration and oracle-query counts) are
// independent of the block width. block_test.go checks this against
// the single-word reference evaluator kept in batch_test.go.
//
// out, if cap-sufficient (NumPOs·words), backs the result; scratch may
// be nil (allocates internally) and is otherwise reused across calls.
func (c *Circuit) EvalNoisyBlockInto(out []uint64, pi, key []bool, eps float64, src *NoiseSource, words int, scratch *BlockScratch) []uint64 {
	if len(pi) != len(c.PIs) || len(key) != len(c.Keys) {
		panic(fmt.Sprintf("circuit %q: EvalNoisyBlockInto input width mismatch (%d/%d PIs, %d/%d keys)",
			c.Name, len(pi), len(c.PIs), len(key), len(c.Keys)))
	}
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("circuit %q: eps %v out of [0,1]", c.Name, eps))
	}
	if words < 1 || words > MaxBlockWords {
		panic(fmt.Sprintf("circuit %q: block width %d out of [1,%d]", c.Name, words, MaxBlockWords))
	}
	if scratch == nil {
		scratch = &BlockScratch{}
	}
	p := c.program()
	w := grow(scratch.wires, len(c.Gates)*words)
	scratch.wires = w

	for i, id := range c.PIs {
		fill(w[int(id)*words:(int(id)+1)*words], broadcast(pi[i]))
	}
	for i, id := range c.Keys {
		fill(w[int(id)*words:(int(id)+1)*words], broadcast(key[i]))
	}
	for _, id := range p.const0 {
		fill(w[int(id)*words:(int(id)+1)*words], 0)
	}
	for _, id := range p.const1 {
		fill(w[int(id)*words:(int(id)+1)*words], ^uint64(0))
	}

	// Flip masks are pre-drawn word-column by word-column — one
	// geometric-skipping stream per column, columns consumed in stream
	// order — which is what makes the blocked pass bit-identical to
	// `words` successive single-word passes over the same stream.
	var masks []uint64
	if eps > 0 {
		masks = grow(scratch.masks, len(p.ops)*words)
		scratch.masks = masks
		drawFlipMasks(masks, len(p.ops), words, eps, src, scratch.gapTable(eps))
	}

	evalOps(p, w, masks, words)

	if cap(out) >= len(c.POs)*words {
		out = out[:len(c.POs)*words]
	} else {
		out = make([]uint64, len(c.POs)*words)
	}
	for i, po := range c.POs {
		copy(out[i*words:(i+1)*words], w[po*words:(po+1)*words])
	}
	return out
}

func fill(row []uint64, v uint64) {
	for k := range row {
		row[k] = v
	}
}

func broadcast(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}

// evalOps runs the compiled schedule over wire rows of `words` words.
// masks, when non-nil, holds one pre-drawn row-major flip row per op.
// The two widths the oracle actually issues — the full block
// (MaxBlockWords) and the single-word tail — dispatch to specialised
// kernels whose wire rows are fixed-size array pointers: that removes
// the per-op slice-header setup and per-lane bounds checks that
// dominate the generic loop once flip drawing is out of the way.
func evalOps(p *evalProg, w, masks []uint64, words int) {
	switch words {
	case 1:
		evalOps1(p, w, masks)
	case 8:
		evalOps8(p, w, masks)
	default:
		evalOpsGeneric(p, w, masks, words)
	}
}

func evalOpsGeneric(p *evalProg, w, masks []uint64, words int) {
	fanin := p.fanin
	for i := range p.ops {
		op := &p.ops[i]
		dst := w[int(op.out)*words : (int(op.out)+1)*words]
		fan := fanin[op.off : op.off+op.nfan]
		switch op.typ {
		case Buf:
			copy(dst, w[int(fan[0])*words:(int(fan[0])+1)*words])
		case Not:
			src := w[int(fan[0])*words : (int(fan[0])+1)*words]
			for k := range dst {
				dst[k] = ^src[k]
			}
		case And, Nand:
			a := w[int(fan[0])*words : (int(fan[0])+1)*words]
			if len(fan) == 2 {
				b := w[int(fan[1])*words : (int(fan[1])+1)*words]
				for k := range dst {
					dst[k] = a[k] & b[k]
				}
			} else {
				copy(dst, a)
				for _, f := range fan[1:] {
					src := w[int(f)*words : (int(f)+1)*words]
					for k := range dst {
						dst[k] &= src[k]
					}
				}
			}
			if op.typ == Nand {
				for k := range dst {
					dst[k] = ^dst[k]
				}
			}
		case Or, Nor:
			a := w[int(fan[0])*words : (int(fan[0])+1)*words]
			if len(fan) == 2 {
				b := w[int(fan[1])*words : (int(fan[1])+1)*words]
				for k := range dst {
					dst[k] = a[k] | b[k]
				}
			} else {
				copy(dst, a)
				for _, f := range fan[1:] {
					src := w[int(f)*words : (int(f)+1)*words]
					for k := range dst {
						dst[k] |= src[k]
					}
				}
			}
			if op.typ == Nor {
				for k := range dst {
					dst[k] = ^dst[k]
				}
			}
		case Xor, Xnor:
			a := w[int(fan[0])*words : (int(fan[0])+1)*words]
			if len(fan) == 2 {
				b := w[int(fan[1])*words : (int(fan[1])+1)*words]
				for k := range dst {
					dst[k] = a[k] ^ b[k]
				}
			} else {
				copy(dst, a)
				for _, f := range fan[1:] {
					src := w[int(f)*words : (int(f)+1)*words]
					for k := range dst {
						dst[k] ^= src[k]
					}
				}
			}
			if op.typ == Xnor {
				for k := range dst {
					dst[k] = ^dst[k]
				}
			}
		case Mux:
			s := w[int(fan[0])*words : (int(fan[0])+1)*words]
			a := w[int(fan[1])*words : (int(fan[1])+1)*words]
			b := w[int(fan[2])*words : (int(fan[2])+1)*words]
			for k := range dst {
				dst[k] = (^s[k] & a[k]) | (s[k] & b[k])
			}
		default:
			panic(fmt.Sprintf("circuit: unsupported gate type %v in compiled schedule", op.typ))
		}
		if masks != nil {
			m := masks[i*words : (i+1)*words]
			for k := range dst {
				dst[k] ^= m[k]
			}
		}
	}
}

// evalOps1 is the single-word kernel: every wire row is one machine
// word held in a register through the op.
func evalOps1(p *evalProg, w, masks []uint64) {
	fanin := p.fanin
	for i := range p.ops {
		op := &p.ops[i]
		fan := fanin[op.off : op.off+op.nfan]
		var v uint64
		switch op.typ {
		case Buf:
			v = w[fan[0]]
		case Not:
			v = ^w[fan[0]]
		case And, Nand:
			v = ^uint64(0)
			for _, f := range fan {
				v &= w[f]
			}
			if op.typ == Nand {
				v = ^v
			}
		case Or, Nor:
			v = 0
			for _, f := range fan {
				v |= w[f]
			}
			if op.typ == Nor {
				v = ^v
			}
		case Xor, Xnor:
			v = 0
			for _, f := range fan {
				v ^= w[f]
			}
			if op.typ == Xnor {
				v = ^v
			}
		case Mux:
			s := w[fan[0]]
			v = (^s & w[fan[1]]) | (s & w[fan[2]])
		default:
			panic(fmt.Sprintf("circuit: unsupported gate type %v in compiled schedule", op.typ))
		}
		if masks != nil {
			v ^= masks[i]
		}
		w[op.out] = v
	}
}

// row8 returns wire id's 8-word row as a fixed-size array pointer, so
// the kernel's inner loops run with compile-time bounds.
func row8(w []uint64, id int32) *[8]uint64 {
	return (*[8]uint64)(w[int(id)*8:])
}

// zero8 is the flip row of a noiseless pass: XORing it is the
// identity, which lets every evalOps8 case fuse the mask application
// into its compute loop unconditionally instead of re-walking dst in
// a second pass.
var zero8 [8]uint64

// evalOps8 is the full-block kernel (MaxBlockWords = 8 words per
// wire). Each gate type gets its own fused loop — inverting types
// fold their negation into the store, and the flip mask is XORed in
// the same pass — so every op is one sweep over registers-worth of
// array-pointer rows with no second dst walk. Multi-fanin gates
// beyond two inputs take a slower reduction path; the netlist front
// ends only emit unary and binary gates.
func evalOps8(p *evalProg, w, masks []uint64) {
	fanin := p.fanin
	for i := range p.ops {
		op := &p.ops[i]
		dst := row8(w, op.out)
		fan := fanin[op.off : op.off+op.nfan]
		m := &zero8
		if masks != nil {
			m = (*[8]uint64)(masks[i*8:])
		}
		if len(fan) == 2 {
			a, b := row8(w, fan[0]), row8(w, fan[1])
			switch op.typ {
			case And:
				for k := 0; k < 8; k++ {
					dst[k] = (a[k] & b[k]) ^ m[k]
				}
			case Nand:
				for k := 0; k < 8; k++ {
					dst[k] = ^(a[k] & b[k]) ^ m[k]
				}
			case Or:
				for k := 0; k < 8; k++ {
					dst[k] = (a[k] | b[k]) ^ m[k]
				}
			case Nor:
				for k := 0; k < 8; k++ {
					dst[k] = ^(a[k] | b[k]) ^ m[k]
				}
			case Xor:
				for k := 0; k < 8; k++ {
					dst[k] = a[k] ^ b[k] ^ m[k]
				}
			case Xnor:
				for k := 0; k < 8; k++ {
					dst[k] = ^(a[k] ^ b[k]) ^ m[k]
				}
			default:
				evalOpSlow(p, w, m, op, fan)
			}
			continue
		}
		switch op.typ {
		case Buf:
			src := row8(w, fan[0])
			for k := 0; k < 8; k++ {
				dst[k] = src[k] ^ m[k]
			}
		case Not:
			src := row8(w, fan[0])
			for k := 0; k < 8; k++ {
				dst[k] = ^src[k] ^ m[k]
			}
		case Mux:
			s, a, b := row8(w, fan[0]), row8(w, fan[1]), row8(w, fan[2])
			for k := 0; k < 8; k++ {
				dst[k] = ((^s[k] & a[k]) | (s[k] & b[k])) ^ m[k]
			}
		default:
			evalOpSlow(p, w, m, op, fan)
		}
	}
}

// evalOpSlow handles the rare shapes evalOps8's fast paths skip
// (associative gates with three or more fanins): a running reduction
// over the fanin rows, negation and flip mask folded into the final
// store.
func evalOpSlow(p *evalProg, w []uint64, m *[8]uint64, op *evalOp, fan []int32) {
	var acc [8]uint64
	switch op.typ {
	case And, Nand, Or, Nor, Xor, Xnor:
		acc = *row8(w, fan[0])
		for _, f := range fan[1:] {
			src := row8(w, f)
			switch op.typ {
			case And, Nand:
				for k := 0; k < 8; k++ {
					acc[k] &= src[k]
				}
			case Or, Nor:
				for k := 0; k < 8; k++ {
					acc[k] |= src[k]
				}
			default:
				for k := 0; k < 8; k++ {
					acc[k] ^= src[k]
				}
			}
		}
	default:
		panic(fmt.Sprintf("circuit: unsupported gate type %v in compiled schedule", op.typ))
	}
	dst := row8(w, op.out)
	switch op.typ {
	case Nand, Nor, Xnor:
		for k := 0; k < 8; k++ {
			dst[k] = ^acc[k] ^ m[k]
		}
	default:
		for k := 0; k < 8; k++ {
			dst[k] = acc[k] ^ m[k]
		}
	}
}
