// Package lock implements the logic-locking techniques the paper
// evaluates against (§III "widely accepted locking techniques [6, 23]"):
//
//   - RLL — random XOR/XNOR key-gate insertion (EPIC-style),
//   - SLL — Strong Logic Locking (Rajendran et al., DAC'12): key gates
//     placed to maximise pairwise interference so individual key bits
//     cannot be sensitised/muted independently,
//   - SFLL-HD — Stripped-Functionality Logic Locking (Yasin et al.,
//     CCS'17): the design is functionality-stripped on the protected
//     input cube(s) and a Hamming-distance restore unit re-injects the
//     flip under the correct key.
//
// All lockers take an unlocked circuit (no key inputs), never mutate
// it, and return a fresh locked netlist together with its correct key.
package lock

import (
	"errors"
	"fmt"
	"math/rand"

	"statsat/internal/circuit"
)

// Locked bundles a locked netlist with its ground-truth key.
type Locked struct {
	Circuit   *circuit.Circuit
	Key       []bool
	Technique string
}

// Overhead reports the silicon cost of a lock relative to the
// original netlist, in the form locking papers quote it.
type Overhead struct {
	OrigGates   int
	LockedGates int
	ExtraGates  int
	KeyBits     int
	// GatePercent is 100·ExtraGates/OrigGates.
	GatePercent float64
}

// CostVersus computes the locking overhead against the original
// circuit.
func (l *Locked) CostVersus(orig *circuit.Circuit) Overhead {
	o := Overhead{
		OrigGates:   orig.NumLogicGates(),
		LockedGates: l.Circuit.NumLogicGates(),
		KeyBits:     len(l.Key),
	}
	o.ExtraGates = o.LockedGates - o.OrigGates
	if o.OrigGates > 0 {
		o.GatePercent = 100 * float64(o.ExtraGates) / float64(o.OrigGates)
	}
	return o
}

// ErrNoKeys is returned when a locker is asked for zero key bits.
var ErrNoKeys = errors.New("lock: key width must be positive")

// insertKeyGate splices an XOR (xnor=false) or XNOR (xnor=true) key
// gate after wire w: all existing readers of w (and any PO driven by
// w) are rewired to the key-gate output. Returns the key-input bit
// value that preserves functionality (false for XOR, true for XNOR).
func insertKeyGate(c *circuit.Circuit, w int, xnor bool, keyName string) bool {
	k := c.AddKey(keyName)
	ty := circuit.Xor
	if xnor {
		ty = circuit.Xnor
	}
	g := c.AddGate(ty, "kg_"+keyName, w, k)
	for id := range c.Gates {
		if id == g {
			continue
		}
		for j, f := range c.Gates[id].Fanin {
			if f == w {
				c.Gates[id].Fanin[j] = g
			}
		}
	}
	for i, po := range c.POs {
		if po == w {
			c.POs[i] = g
		}
	}
	return xnor
}

// lockableWires returns the internal wires eligible for key-gate
// insertion: observable logic gates (primary inputs excluded so the
// key gate sits inside the design, as is conventional).
func lockableWires(c *circuit.Circuit) []int {
	reach := c.ReachesOutput()
	var out []int
	for id := range c.Gates {
		if c.Gates[id].Type.IsInputType() {
			continue
		}
		if reach[id] {
			out = append(out, id)
		}
	}
	return out
}

// RLL locks the circuit with nKeys random XOR/XNOR key gates at
// distinct observable wires.
func RLL(orig *circuit.Circuit, nKeys int, rng *rand.Rand) (*Locked, error) {
	if nKeys <= 0 {
		return nil, ErrNoKeys
	}
	if orig.NumKeys() != 0 {
		return nil, fmt.Errorf("lock: circuit %q already carries %d key inputs", orig.Name, orig.NumKeys())
	}
	c := orig.Clone()
	c.Name = orig.Name + "-rll"
	cand := lockableWires(c)
	if len(cand) < nKeys {
		return nil, fmt.Errorf("lock: circuit %q has %d lockable wires, need %d", orig.Name, len(cand), nKeys)
	}
	rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	key := make([]bool, nKeys)
	for i := 0; i < nKeys; i++ {
		key[i] = insertKeyGate(c, cand[i], rng.Intn(2) == 1, fmt.Sprintf("keyinput%d", i))
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("lock: RLL produced invalid netlist: %w", err)
	}
	return &Locked{Circuit: c, Key: key, Technique: "RLL"}, nil
}

// SLL locks the circuit with nKeys XOR/XNOR key gates chosen to
// maximise pairwise interference, following the Strong Logic Locking
// heuristic: two key gates interfere when their fanout cones converge
// on a common gate while neither gate lies on the other's path (a
// dominating placement would let the attacker mute one key bit by
// controlling the other). Candidates are scored greedily by the number
// of interference edges into the already-selected set.
func SLL(orig *circuit.Circuit, nKeys int, rng *rand.Rand) (*Locked, error) {
	if nKeys <= 0 {
		return nil, ErrNoKeys
	}
	if orig.NumKeys() != 0 {
		return nil, fmt.Errorf("lock: circuit %q already carries %d key inputs", orig.Name, orig.NumKeys())
	}
	c := orig.Clone()
	c.Name = orig.Name + "-sll"
	cand := lockableWires(c)
	if len(cand) < nKeys {
		return nil, fmt.Errorf("lock: circuit %q has %d lockable wires, need %d", orig.Name, len(cand), nKeys)
	}

	// Cap the candidate pool to keep cone analysis tractable on big
	// netlists; sampling is seeded and unbiased.
	const maxPool = 256
	if len(cand) > maxPool {
		rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		cand = cand[:maxPool]
	}
	fan := c.Fanouts()
	cones := make(map[int][]uint64, len(cand))
	for _, w := range cand {
		cones[w] = c.OutputCone(fan, w)
	}
	interferes := func(a, b int) bool {
		ca, cb := cones[a], cones[b]
		if ca[b>>6]&(1<<uint(b&63)) != 0 || cb[a>>6]&(1<<uint(a&63)) != 0 {
			return false // same path: one dominates the other
		}
		for i := range ca {
			if ca[i]&cb[i] != 0 {
				return true // cones reconverge
			}
		}
		return false
	}

	selected := []int{cand[rng.Intn(len(cand))]}
	inSel := map[int]bool{selected[0]: true}
	for len(selected) < nKeys {
		best, bestScore := -1, -1
		for _, w := range cand {
			if inSel[w] {
				continue
			}
			score := 0
			for _, s := range selected {
				if interferes(w, s) {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = w, score
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("lock: SLL candidate pool exhausted at %d keys", len(selected))
		}
		selected = append(selected, best)
		inSel[best] = true
	}

	key := make([]bool, nKeys)
	for i, w := range selected {
		key[i] = insertKeyGate(c, w, rng.Intn(2) == 1, fmt.Sprintf("keyinput%d", i))
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("lock: SLL produced invalid netlist: %w", err)
	}
	return &Locked{Circuit: c, Key: key, Technique: "SLL"}, nil
}

// SFLLHD locks the circuit with SFLL-HD^h over keyBits protected
// primary inputs. The functionality-stripped circuit inverts the
// protected output for every input whose Hamming distance from the
// (hardwired) secret key equals h; the restore unit recomputes the
// same predicate against the key inputs and cancels the flip when the
// correct key is applied. protectedOut selects which primary output is
// stripped (use 0 if unsure; must be in range).
func SFLLHD(orig *circuit.Circuit, keyBits, h int, rng *rand.Rand) (*Locked, error) {
	return SFLLHDOutput(orig, keyBits, h, 0, rng)
}

// SFLLHDOutput is SFLLHD with an explicit protected-output index.
func SFLLHDOutput(orig *circuit.Circuit, keyBits, h, protectedOut int, rng *rand.Rand) (*Locked, error) {
	if keyBits <= 0 {
		return nil, ErrNoKeys
	}
	if orig.NumKeys() != 0 {
		return nil, fmt.Errorf("lock: circuit %q already carries %d key inputs", orig.Name, orig.NumKeys())
	}
	if keyBits > orig.NumPIs() {
		return nil, fmt.Errorf("lock: SFLL-HD needs %d protected inputs, circuit has %d", keyBits, orig.NumPIs())
	}
	if h < 0 || h > keyBits {
		return nil, fmt.Errorf("lock: SFLL-HD h=%d out of range [0,%d]", h, keyBits)
	}
	if protectedOut < 0 || protectedOut >= orig.NumPOs() {
		return nil, fmt.Errorf("lock: protected output %d out of range", protectedOut)
	}

	c := orig.Clone()
	c.Name = fmt.Sprintf("%s-sfllhd%d", orig.Name, h)

	// Protected input subset: a random choice of keyBits primary inputs.
	perm := rng.Perm(c.NumPIs())[:keyBits]
	prot := make([]int, keyBits)
	for i, p := range perm {
		prot[i] = c.PIs[p]
	}

	// Secret key.
	key := make([]bool, keyBits)
	for i := range key {
		key[i] = rng.Intn(2) == 1
	}

	// --- Functionality-stripped half: flip* = [HD(Xp, key*) == h],
	// with the secret hardwired as constants.
	diffStar := make([]int, keyBits)
	for i, x := range prot {
		kc := circuit.Const0
		if key[i] {
			kc = circuit.Const1
		}
		kg := c.AddGate(kc, fmt.Sprintf("fsc_k%d", i))
		diffStar[i] = c.AddGate(circuit.Xor, fmt.Sprintf("fsc_d%d", i), x, kg)
	}
	flipStar := hammingEquals(c, diffStar, h, "fsc")

	// --- Restore unit: flip = [HD(Xp, K) == h] over real key inputs.
	diff := make([]int, keyBits)
	for i, x := range prot {
		k := c.AddKey(fmt.Sprintf("keyinput%d", i))
		diff[i] = c.AddGate(circuit.Xor, fmt.Sprintf("ru_d%d", i), x, k)
	}
	flip := hammingEquals(c, diff, h, "ru")

	// Protected output: y' = y ⊕ flip* ⊕ flip.
	drv := c.POs[protectedOut]
	x1 := c.AddGate(circuit.Xor, "sfll_strip", drv, flipStar)
	x2 := c.AddGate(circuit.Xor, "sfll_restore", x1, flip)
	c.POs[protectedOut] = x2

	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("lock: SFLL-HD produced invalid netlist: %w", err)
	}
	return &Locked{Circuit: c, Key: key, Technique: fmt.Sprintf("SFLL-HD^%d", h)}, nil
}

// hammingEquals builds [popcount(bits) == h] as gates and returns the
// predicate's wire ID. prefix namespaces the generated gate names.
func hammingEquals(c *circuit.Circuit, bits []int, h int, prefix string) int {
	sum := popcount(c, bits, prefix)
	// Compare against the constant h bit by bit.
	width := len(sum)
	var eqs []int
	for i := 0; i < width; i++ {
		want := h>>uint(i)&1 == 1
		var e int
		if want {
			e = c.AddGate(circuit.Buf, fmt.Sprintf("%s_eq%d", prefix, i), sum[i])
		} else {
			e = c.AddGate(circuit.Not, fmt.Sprintf("%s_eq%d", prefix, i), sum[i])
		}
		eqs = append(eqs, e)
	}
	// h might not be representable in width bits (h > max popcount is
	// rejected by the caller, so width always suffices).
	return andTree(c, eqs, prefix+"_and")
}

// popcount builds an adder network summing the given 1-bit wires and
// returns the sum's bits, LSB first. Uses ripple incorporation of one
// bit at a time (half-adder chains): O(n·log n) gates, plenty for key
// widths up to a few hundred bits.
func popcount(c *circuit.Circuit, bits []int, prefix string) []int {
	if len(bits) == 0 {
		z := c.AddGate(circuit.Const0, prefix+"_zero")
		return []int{z}
	}
	sum := []int{bits[0]}
	for n := 1; n < len(bits); n++ {
		carry := bits[n]
		for i := 0; i < len(sum) && carry >= 0; i++ {
			s := c.AddGate(circuit.Xor, fmt.Sprintf("%s_s%d_%d", prefix, n, i), sum[i], carry)
			cy := c.AddGate(circuit.And, fmt.Sprintf("%s_c%d_%d", prefix, n, i), sum[i], carry)
			sum[i] = s
			carry = cy
		}
		// Grow the sum when the carry can still be set.
		if 1<<uint(len(sum)) <= n+1 {
			sum = append(sum, carry)
		}
	}
	return sum
}

// andTree reduces wires with a balanced AND tree.
func andTree(c *circuit.Circuit, wires []int, prefix string) int {
	if len(wires) == 1 {
		return wires[0]
	}
	var next []int
	for i := 0; i < len(wires); i += 2 {
		if i+1 == len(wires) {
			next = append(next, wires[i])
			continue
		}
		next = append(next, c.AddGate(circuit.And, fmt.Sprintf("%s_%d_%d", prefix, len(wires), i), wires[i], wires[i+1]))
	}
	return andTree(c, next, prefix)
}
