package cnf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
	"statsat/internal/lock"
	"statsat/internal/sat"
)

// miterArm is one encoding of the SAT-attack miter: a solver with its
// PI and key literals and a way to add one DIP's two constrained
// circuit copies.
type miterArm struct {
	name             string
	s                *sat.Solver
	pis, keyA, keyB  []sat.Lit
	addDIP           func(x, y []bool) error
	afterConstraints func() // nil, or run after construction and after every DIP
}

// shippedArm is NewMiter as the attacks use it.
func shippedArm(t *testing.T, name string, c *circuit.Circuit) *miterArm {
	t.Helper()
	m, err := NewMiter(c)
	if err != nil {
		t.Fatal(err)
	}
	return &miterArm{name: name, s: m.S, pis: m.PIs, keyA: m.KeyA, keyB: m.KeyB,
		addDIP: func(x, y []bool) error {
			outA, outB, err := m.AddDIPCopies(x)
			if err != nil {
				return err
			}
			for i := range y {
				Equal(m.S, outA[i], y[i])
				Equal(m.S, outB[i], y[i])
			}
			return nil
		}}
}

// allDecisionArm is the shipped miter with every variable made a
// decision variable again after each change, so its search may branch
// on the DIP copies' gate variables as well.
func allDecisionArm(t *testing.T, c *circuit.Circuit) *miterArm {
	t.Helper()
	a := shippedArm(t, "all-decision", c)
	a.afterConstraints = func() {
		for v := 0; v < a.s.NumVars(); v++ {
			a.s.SetDecision(sat.Var(v), true)
		}
	}
	return a
}

// referenceArm is the miter as it was encoded before Simplify and the
// shared key-independent cone: the raw netlist, two independent
// copies over shared PI variables, and two raw DIP copies per DIP.
func referenceArm(t *testing.T, c *circuit.Circuit) *miterArm {
	t.Helper()
	s := sat.New()
	a := &miterArm{name: "reference", s: s, pis: FreshLits(s, c.NumPIs()),
		keyA: FreshLits(s, c.NumKeys()), keyB: FreshLits(s, c.NumKeys())}
	ca, err := Encode(s, c, Options{PILits: a.pis, KeyLits: a.keyA})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Encode(s, c, Options{PILits: a.pis, KeyLits: a.keyB})
	if err != nil {
		t.Fatal(err)
	}
	NotEqualAny(s, ca.Outs, cb.Outs)
	a.addDIP = func(x, y []bool) error {
		for _, keys := range [][]sat.Lit{a.keyA, a.keyB} {
			cp, err := Encode(s, c, Options{FixedPIs: x, KeyLits: keys})
			if err != nil {
				return err
			}
			for i := range y {
				Equal(s, cp.Outs[i], y[i])
			}
		}
		return nil
	}
	return a
}

// TestMiterEquisatisfiable runs the noiseless DIP loop on small locked
// circuits with three miter encodings fed the same DIPs: NewMiter as
// shipped (DIP-copy gates are non-decision variables), the same miter
// with every variable a decision variable, and the unshared reference
// miter on the raw netlist. At every step the three must agree on SAT
// or UNSAT. Each SAT model is checked by direct evaluation, with no
// SAT: its two keys differ at its input, and both agree with the true
// key on every recorded DIP. At UNSAT the key solver's key must be in
// the correct key's class, judged by truth tables over all inputs.
func TestMiterEquisatisfiable(t *testing.T) {
	// SFLL-HD⁰ needs up to 2^width DIPs, and every model is checked
	// against every recorded DIP, so its width stops at 6.
	lockers := []struct {
		name     string
		maxWidth int
		mk       func(orig *circuit.Circuit, width int, rng *rand.Rand) (*lock.Locked, error)
	}{
		{"rll", 10, lock.RLL},
		{"antisat", 10, func(o *circuit.Circuit, w int, rng *rand.Rand) (*lock.Locked, error) {
			return lock.AntiSAT(o, w&^1, rng)
		}},
		{"sfll-hd0", 6, func(o *circuit.Circuit, w int, rng *rand.Rand) (*lock.Locked, error) {
			return lock.SFLLHD(o, w, 0, rng)
		}},
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nIn := 6 + rng.Intn(5) // 6..10 PIs
		orig := gen.Random(fmt.Sprintf("eq%d", seed), nIn, 30+rng.Intn(40), 2+rng.Intn(3), seed)
		for _, lk := range lockers {
			width := min(nIn-rng.Intn(3), lk.maxWidth) // 4..10 key bits
			l, err := lk.mk(orig, width, rand.New(rand.NewSource(100+seed)))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("seed%d/%s-%d", seed, lk.name, l.Circuit.NumKeys()), func(t *testing.T) {
				t.Parallel()
				checkMiterArms(t, l)
			})
		}
	}
}

func checkMiterArms(t *testing.T, l *lock.Locked) {
	c := l.Circuit
	arms := []*miterArm{shippedArm(t, "shipped", c), allDecisionArm(t, c), referenceArm(t, c)}
	for _, a := range arms {
		if a.afterConstraints != nil {
			a.afterConstraints()
		}
	}
	kc, err := circuit.Simplify(c) // the attacks' key solver runs on the miter's netlist
	if err != nil {
		t.Fatal(err)
	}
	ks := NewKeySolver(kc)
	var dips, ys [][]bool
	maxIters := 1 << c.NumPIs() // each DIP is a new input
	for iter := 0; ; iter++ {
		if iter > maxIters {
			t.Fatalf("no convergence after %d DIPs", maxIters)
		}
		var verdicts []sat.Status
		for _, a := range arms {
			st := a.s.Solve()
			verdicts = append(verdicts, st)
			if st == sat.Sat {
				checkArmModel(t, a, c, dips, ys)
			}
		}
		for i, st := range verdicts {
			if st != verdicts[0] {
				t.Fatalf("step %d: %s says %v, %s says %v", iter, arms[0].name, verdicts[0], arms[i].name, st)
			}
		}
		if verdicts[0] == sat.Unsat {
			break
		}
		if verdicts[0] != sat.Sat {
			t.Fatalf("step %d: %v", iter, verdicts[0])
		}
		x := modelOf(arms[0].s, arms[0].pis)
		y := c.Eval(x, l.Key, nil)
		dips, ys = append(dips, x), append(ys, y)
		for _, a := range arms {
			if err := a.addDIP(x, y); err != nil {
				t.Fatal(err)
			}
			if a.afterConstraints != nil {
				a.afterConstraints()
			}
		}
		outs, err := ks.AddDIPCopy(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			Equal(ks.S, outs[i], y[i])
		}
	}
	if ks.S.Solve() != sat.Sat {
		t.Fatalf("key solver UNSAT after %d DIPs", len(dips))
	}
	key := ks.Key()
	for m := 0; m < 1<<c.NumPIs(); m++ {
		x := make([]bool, c.NumPIs())
		for i := range x {
			x[i] = m>>i&1 == 1
		}
		if !slices.Equal(c.Eval(x, key, nil), c.Eval(x, l.Key, nil)) {
			t.Fatalf("after %d DIPs the key %v differs from the true key %v at input %v",
				len(dips), key, l.Key, x)
		}
	}
}

// checkArmModel decodes the arm's distinguishing input and its two
// keys from the last model and checks them by evaluation.
func checkArmModel(t *testing.T, a *miterArm, c *circuit.Circuit, dips, ys [][]bool) {
	t.Helper()
	x := modelOf(a.s, a.pis)
	ka, kb := modelOf(a.s, a.keyA), modelOf(a.s, a.keyB)
	if slices.Equal(c.Eval(x, ka, nil), c.Eval(x, kb, nil)) {
		t.Fatalf("%s: keys %v and %v agree at its input %v", a.name, ka, kb, x)
	}
	for d, dx := range dips {
		for _, k := range [][]bool{ka, kb} {
			if !slices.Equal(c.Eval(dx, k, nil), ys[d]) {
				t.Fatalf("%s: key %v disagrees with the oracle at DIP %d %v", a.name, k, d, dx)
			}
		}
	}
}
