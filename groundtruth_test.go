package statsat_test

import (
	"fmt"
	mbits "math/bits"
	"testing"

	"statsat"
)

// truthTabler evaluates a circuit on every primary-input pattern, 64
// patterns to a word: lane l of word k is pattern m = 64k + l, which
// sets PI i to bit i of m. It needs at least 6 PIs, so every word is
// full.
type truthTabler struct {
	c     *statsat.Circuit
	order []int
	words int
	w     []uint64 // words values per gate, gate-major
}

func newTruthTabler(t *testing.T, c *statsat.Circuit) *truthTabler {
	t.Helper()
	if n := c.NumPIs(); n < 6 || n > 16 {
		t.Fatalf("truth tables need 6..16 PIs, circuit has %d", n)
	}
	words := 1 << uint(c.NumPIs()-6)
	return &truthTabler{c: c, order: c.MustTopoOrder(), words: words, w: make([]uint64, c.NumGates()*words)}
}

// lanePattern[i] holds PI i's value across the 64 lanes of one word.
var lanePattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// table writes key's truth table into dst, one row of t.words words
// per primary output, and returns it.
func (t *truthTabler) table(key []bool, dst []uint64) []uint64 {
	c, n := t.c, t.words
	row := func(id int) []uint64 { return t.w[id*n : (id+1)*n] }
	for i, id := range c.PIs {
		r := row(id)
		for k := range r {
			switch {
			case i < 6:
				r[k] = lanePattern[i]
			case k>>uint(i-6)&1 == 1:
				r[k] = ^uint64(0)
			default:
				r[k] = 0
			}
		}
	}
	for i, id := range c.Keys {
		v := uint64(0)
		if key[i] {
			v = ^uint64(0)
		}
		r := row(id)
		for k := range r {
			r[k] = v
		}
	}
	for _, id := range t.order {
		g := &c.Gates[id]
		r := row(id)
		switch g.Type {
		case statsat.Input, statsat.Key:
			continue
		case statsat.Const0, statsat.Const1:
			v := uint64(0)
			if g.Type == statsat.Const1 {
				v = ^uint64(0)
			}
			for k := range r {
				r[k] = v
			}
			continue
		}
		for k := range r {
			var v uint64
			switch g.Type {
			case statsat.Buf, statsat.Not:
				v = row(g.Fanin[0])[k]
			case statsat.And, statsat.Nand:
				v = ^uint64(0)
				for _, f := range g.Fanin {
					v &= row(f)[k]
				}
			case statsat.Or, statsat.Nor:
				for _, f := range g.Fanin {
					v |= row(f)[k]
				}
			case statsat.Xor, statsat.Xnor:
				for _, f := range g.Fanin {
					v ^= row(f)[k]
				}
			case statsat.Mux:
				sel, a, b := row(g.Fanin[0])[k], row(g.Fanin[1])[k], row(g.Fanin[2])[k]
				v = sel&b | ^sel&a
			default:
				panic(fmt.Sprintf("truth table: gate type %v", g.Type))
			}
			switch g.Type {
			case statsat.Not, statsat.Nand, statsat.Nor, statsat.Xnor:
				v = ^v
			}
			r[k] = v
		}
	}
	dst = dst[:0]
	for _, po := range c.POs {
		dst = append(dst, row(po)...)
	}
	return dst
}

// errorRate is the fraction of input patterns on which tables a and b
// differ in at least one output.
func (t *truthTabler) errorRate(a, b []uint64) float64 {
	wrong := 0
	for k := 0; k < t.words; k++ {
		var diff uint64
		for o := 0; o < t.c.NumPOs(); o++ {
			diff |= a[o*t.words+k] ^ b[o*t.words+k]
		}
		wrong += mbits.OnesCount64(diff)
	}
	return float64(wrong) / float64(64*t.words)
}

// keyFromIndex spells key index m as a key vector, bit i of m in key
// bit i.
func keyFromIndex(m, width int) []bool {
	k := make([]bool, width)
	for i := range k {
		k[i] = m>>uint(i)&1 == 1
	}
	return k
}

// appSATMaxEarlyError is the largest exact error rate an AppSAT key
// that exits early on one round of 50 random patterns with no mismatch
// may have: above it, such a round shows a mismatch with probability
// at least 1 − (1 − 0.088)^50 ≥ 0.99.
const appSATMaxEarlyError = 0.088

// TestGroundTruthEps0 checks the attacks' answers, not their
// trajectories. On small random circuits under every locking scheme,
// a key is correct when its truth table over all 2^n inputs equals the
// installed key's; no SAT solver takes part in that check. Where the
// key width allows, the whole key-equivalence class is enumerated and
// metrics.KeysEquivalent (the SAT-based checker the benchmark's
// key_correct_frac rests on) must agree with it on every key. At ε = 0
// the SAT attack, PSAT and StatSAT must each return a key in the
// class; AppSAT must too, unless it exits early, when its key's exact
// error rate must stay within what one clean 50-pattern round admits.
func TestGroundTruthEps0(t *testing.T) {
	circuits := []*statsat.Circuit{
		statsat.RandomCircuit("gt12", 12, 64, 6, 302),
	}
	for ci, orig := range circuits {
		for _, lk := range lockers(orig) {
			lk := lk
			t.Run(fmt.Sprintf("%s/%s", orig.Name, lk.name), func(t *testing.T) {
				t.Parallel()
				l, err := lk.mk(int64(40 + ci))
				if err != nil {
					t.Fatal(err)
				}
				checkGroundTruth(t, l, int64(50+ci))
			})
		}
	}
}

func checkGroundTruth(t *testing.T, l *statsat.Locked, seed int64) {
	c := l.Circuit
	width := c.NumKeys()
	if width > 12 {
		t.Fatalf("key width %d over the test's 12", width)
	}
	tt := newTruthTabler(t, c)
	want := tt.table(l.Key, nil)
	var scratch []uint64
	inClass := func(key []bool) bool {
		scratch = tt.table(key, scratch)
		for i := range want {
			if scratch[i] != want[i] {
				return false
			}
		}
		return true
	}

	if width <= 10 {
		class := 0
		for m := 0; m < 1<<uint(width); m++ {
			key := keyFromIndex(m, width)
			in := inClass(key)
			eq, err := statsat.KeysEquivalent(c, key, l.Key)
			if err != nil {
				t.Fatal(err)
			}
			if eq != in {
				t.Fatalf("key %s: KeysEquivalent says %v, the truth table says %v", bits(key), eq, in)
			}
			if in {
				class++
			}
		}
		if class == 0 {
			t.Fatal("the installed key is missing from its own class")
		}
		t.Logf("class of %d among %d keys", class, 1<<uint(width))
	}

	check := func(attack string, key []bool) {
		t.Helper()
		if key == nil {
			t.Errorf("%s returned no key", attack)
			return
		}
		if !inClass(key) {
			t.Errorf("%s key %s is outside the class (error rate %.4f)",
				attack, bits(key), tt.errorRate(scratch, want))
		}
	}

	sat, err := statsat.StandardSAT(c, statsat.NewOracle(c, l.Key), 2000)
	if err != nil {
		t.Fatal(err)
	}
	check("SAT", sat.Key)

	psat, err := statsat.PSAT(c, statsat.NewNoisyOracle(c, l.Key, 0, seed), statsat.PSATOptions{Ns: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	check("PSAT", psat.Key)

	res, err := statsat.Attack(c, statsat.NewNoisyOracle(c, l.Key, 0, seed), statsat.Options{
		Ns: 8, NSatis: 12, NEval: 8, EvalNs: 8, NInst: 4, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Keys {
		check("StatSAT", k.Key)
	}

	app, err := statsat.AppSAT(c, statsat.NewOracle(c, l.Key), statsat.AppSATOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case app.Key == nil:
		t.Error("AppSAT returned no key")
	case !app.EarlyExit:
		check("AppSAT", app.Key)
	default:
		rate := tt.errorRate(tt.table(app.Key, scratch), want)
		if rate > appSATMaxEarlyError {
			t.Errorf("AppSAT exited early with key %s at exact error rate %.4f > %.3f",
				bits(app.Key), rate, appSATMaxEarlyError)
		}
		t.Logf("AppSAT exited early at exact error rate %.4f", rate)
	}
}
