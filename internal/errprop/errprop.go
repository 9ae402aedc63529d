// Package errprop estimates per-output bit error ratios (BERs) of a
// probabilistic circuit for a specific input/key assignment using the
// Boolean Difference Calculus style of probabilistic error propagation
// (Mohyuddin et al.), which §IV-C of the paper relies on.
//
// Model: every logic gate inverts its computed output with probability
// eps, independently. For a concrete input vector the deterministic
// value of every wire is known; the propagated quantity is the
// probability that a wire's actual value differs from its
// deterministic value. Gate inputs are treated as independent (the
// standard approximation — reconvergent fanout correlations are
// ignored, which is why the paper calls the estimate "rough").
package errprop

import (
	"fmt"

	"statsat/internal/circuit"
)

// MaxEnumFanin bounds the exact flip-pattern enumeration per gate.
const MaxEnumFanin = 16

// estOp is one logic gate of the estimator's flattened schedule: the
// gate type and output ID plus an offset into the shared flat fanin
// array, laid out in topological order so the propagation loop
// streams three dense arrays instead of chasing Gate pointers.
type estOp struct {
	typ  circuit.GateType
	out  int32
	off  int32
	nfan int32
}

// Estimator carries the per-circuit scratch (deterministic wire
// values and per-wire error probabilities) and a flattened gate
// schedule that WireErrorProbs needs, so the per-DIP BER estimation
// loop — N_satis candidate keys per distinguishing input — reuses its
// buffers and topological order instead of rebuilding them for every
// key. An Estimator is bound to one circuit and is NOT safe for
// concurrent use; give each goroutine its own (they are cheap: a few
// NumGates-sized slices).
//
// The schedule lists the gates with no key input in their fanin cone
// first: their values and error probabilities depend on the input
// alone, so AverageOutputBERs computes them once per input and
// re-runs only ops[nIndep:] for each candidate key.
type Estimator struct {
	c      *circuit.Circuit
	vals   []bool
	p      []float64
	ops    []estOp
	fanin  []int32
	nIndep int
	wide   error // the first gate (topological order) too wide to enumerate
}

// NewEstimator returns an estimator for c with pre-sized scratch and
// a pre-flattened propagation schedule.
func NewEstimator(c *circuit.Circuit) *Estimator {
	est := &Estimator{
		c:    c,
		vals: make([]bool, c.NumGates()),
		p:    make([]float64, c.NumGates()),
	}
	keyDep := make([]bool, c.NumGates())
	for _, id := range c.Keys {
		keyDep[id] = true
	}
	var dep []estOp
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		if g.Type.IsInputType() {
			// Inputs and constants are noise-free: p stays 0. Constant
			// values are fixed here; PIs and keys are set per call.
			est.vals[id] = g.Type == circuit.Const1
			continue
		}
		if len(g.Fanin) > MaxEnumFanin && est.wide == nil {
			est.wide = fmt.Errorf("errprop: gate %d (%s) fanin %d exceeds enumeration limit %d",
				id, g.Name, len(g.Fanin), MaxEnumFanin)
		}
		op := estOp{
			typ:  g.Type,
			out:  int32(id),
			off:  int32(len(est.fanin)),
			nfan: int32(len(g.Fanin)),
		}
		for _, f := range g.Fanin {
			est.fanin = append(est.fanin, int32(f))
			keyDep[id] = keyDep[id] || keyDep[f]
		}
		// A key-independent gate's fanins are key-independent too, so
		// moving these ahead of the key-dependent ones keeps the
		// schedule topological.
		if keyDep[id] {
			dep = append(dep, op)
		} else {
			est.ops = append(est.ops, op)
		}
	}
	est.nIndep = len(est.ops)
	est.ops = append(est.ops, dep...)
	return est
}

// WireErrorProbs returns, for every gate ID, the probability that the
// wire's value differs from its deterministic value, for input x, key
// k and per-gate error probability eps. The returned slice is the
// estimator's scratch, valid only until the next call on the same
// estimator. Copy it to retain it.
func (est *Estimator) WireErrorProbs(x, k []bool, eps float64) ([]float64, error) {
	if err := est.check(eps); err != nil {
		return nil, err
	}
	est.setInputs(x)
	est.setKey(k)
	est.propagate(est.ops, eps)
	return est.p, nil
}

func (est *Estimator) check(eps float64) error {
	if eps < 0 || eps > 1 {
		return fmt.Errorf("errprop: eps %v out of [0,1]", eps)
	}
	return est.wide
}

func (est *Estimator) setInputs(x []bool) {
	c := est.c
	if len(x) != len(c.PIs) {
		panic(fmt.Sprintf("errprop: circuit %q: %d PI values, want %d", c.Name, len(x), len(c.PIs)))
	}
	for i, id := range c.PIs {
		est.vals[id] = x[i]
	}
}

func (est *Estimator) setKey(k []bool) {
	c := est.c
	if len(k) != len(c.Keys) {
		panic(fmt.Sprintf("errprop: circuit %q: %d key values, want %d", c.Name, len(k), len(c.Keys)))
	}
	for i, id := range c.Keys {
		est.vals[id] = k[i]
	}
}

// propagate evaluates ops in order, computing each gate's
// deterministic value and the probability that its noisy value
// differs from it. Every fanin of an op must already be evaluated.
func (est *Estimator) propagate(ops []estOp, eps float64) {
	vals, p := est.vals, est.p
	var faninVals [MaxEnumFanin]bool
	var faninErrs [MaxEnumFanin]float64
	var flipped [MaxEnumFanin]bool
	for oi := range ops {
		op := &ops[oi]
		n := int(op.nfan)
		for i, f := range est.fanin[op.off : op.off+op.nfan] {
			faninVals[i] = vals[f]
			faninErrs[i] = p[f]
		}
		correct := op.typ.Eval(faninVals[:n])
		vals[op.out] = correct
		// q = P(gate function over (possibly flipped) inputs differs
		// from the deterministic output), enumerating flip patterns.
		q := 0.0
		for mask := 0; mask < 1<<uint(n); mask++ {
			prob := 1.0
			for i := 0; i < n; i++ {
				if mask>>uint(i)&1 == 1 {
					prob *= faninErrs[i]
					flipped[i] = !faninVals[i]
				} else {
					prob *= 1 - faninErrs[i]
					flipped[i] = faninVals[i]
				}
			}
			//lint:ignore floateq exact-zero short-circuit: prob is a product that is 0.0 only when a factor is exactly 0, and the branch is a pure skip-work optimisation
			if prob == 0 {
				continue
			}
			if op.typ.Eval(flipped[:n]) != correct {
				q += prob
			}
		}
		// Fold in the gate's own flip: wrong iff exactly one of
		// (inputs made it wrong, gate flipped).
		p[op.out] = q*(1-eps) + (1-q)*eps
	}
}

// OutputBERsInto computes the per-output BER estimate for input x and
// key k under gate error eps (the attacker's E vector of §IV-C for one
// candidate key) into dst, which backs the result when cap-sufficient
// (nil allocates).
func (est *Estimator) OutputBERsInto(dst []float64, x, k []bool, eps float64) ([]float64, error) {
	p, err := est.WireErrorProbs(x, k, eps)
	if err != nil {
		return nil, err
	}
	c := est.c
	if cap(dst) >= c.NumPOs() {
		dst = dst[:c.NumPOs()]
	} else {
		dst = make([]float64, c.NumPOs())
	}
	for i, po := range c.POs {
		dst[i] = p[po]
	}
	return dst, nil
}

// AverageOutputBERs averages the per-output BER estimate over several
// candidate keys, exactly as §IV-C prescribes: the satisfying keys of
// the previous DIPs each yield a BER estimate; their mean is the E
// used for thresholding. Returns an error if keys is empty. The
// per-key wire probabilities live in the estimator's scratch, so only
// the returned averaged vector is allocated (it is freshly allocated
// on every call because callers retain it per DIP).
//
// The estimate computes every key's deterministic outputs at x on the
// way. When outs is non-nil it receives them, key i's output j at
// outs[i·NumPOs()+j], so a caller can check the keys against x's
// observed outputs without evaluating them again; it must hold
// len(keys)·NumPOs() values.
//
// The key-independent part of the circuit is evaluated once for x;
// each key then re-evaluates only the gates downstream of a key input.
// The result is bit-identical to averaging WireErrorProbs per key.
func (est *Estimator) AverageOutputBERs(x []bool, keys [][]bool, eps float64, outs []bool) ([]float64, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("errprop: no candidate keys to average over")
	}
	if err := est.check(eps); err != nil {
		return nil, err
	}
	c := est.c
	npo := c.NumPOs()
	est.setInputs(x)
	est.propagate(est.ops[:est.nIndep], eps)
	acc := make([]float64, npo)
	for ki, k := range keys {
		est.setKey(k)
		est.propagate(est.ops[est.nIndep:], eps)
		for i, po := range c.POs {
			acc[i] += est.p[po]
		}
		if outs != nil {
			row := outs[ki*npo : (ki+1)*npo]
			for i, po := range c.POs {
				row[i] = est.vals[po]
			}
		}
	}
	for i := range acc {
		acc[i] /= float64(len(keys))
	}
	return acc, nil
}
