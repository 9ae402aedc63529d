package circuit

import "math/rand"

// Fanouts returns, for every gate ID, the list of gate IDs that read it.
func (c *Circuit) Fanouts() [][]int {
	out := make([][]int, len(c.Gates))
	for id := range c.Gates {
		for _, f := range c.Gates[id].Fanin {
			out[f] = append(out[f], id)
		}
	}
	return out
}

// Levels returns the logic depth of every gate (sources at level 0,
// a gate one past its deepest fanin) and the overall circuit depth.
func (c *Circuit) Levels() ([]int, int) {
	lv := make([]int, len(c.Gates))
	depth := 0
	for _, id := range c.MustTopoOrder() {
		g := &c.Gates[id]
		l := 0
		for _, f := range g.Fanin {
			if lv[f]+1 > l {
				l = lv[f] + 1
			}
		}
		lv[id] = l
		if l > depth {
			depth = l
		}
	}
	return lv, depth
}

// OutputCone returns the transitive fanout of id, including id
// itself, as a word bitset indexed by gate ID: gate g is in the cone
// when bit g&63 of word g>>6 is set. fan is c.Fanouts(), which a caller
// taking many cones builds once.
func (c *Circuit) OutputCone(fan [][]int, id int) []uint64 {
	in := make([]uint64, (len(c.Gates)+63)/64)
	stack := []int{id}
	in[id>>6] |= 1 << uint(id&63)
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range fan[g] {
			if w, b := s>>6, uint64(1)<<uint(s&63); in[w]&b == 0 {
				in[w] |= b
				stack = append(stack, s)
			}
		}
	}
	return in
}

// InputCone returns a bitset marking the transitive fanin of id,
// including id itself.
func (c *Circuit) InputCone(id int) []bool {
	in := make([]bool, len(c.Gates))
	stack := []int{id}
	in[id] = true
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Gates[g].Fanin {
			if !in[f] {
				in[f] = true
				stack = append(stack, f)
			}
		}
	}
	return in
}

// ReachesOutput returns, per gate, whether it is in the transitive
// fanin of at least one primary output (i.e. observable).
func (c *Circuit) ReachesOutput() []bool {
	mark := make([]bool, len(c.Gates))
	var stack []int
	for _, po := range c.POs {
		if !mark[po] {
			mark[po] = true
			stack = append(stack, po)
		}
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Gates[g].Fanin {
			if !mark[f] {
				mark[f] = true
				stack = append(stack, f)
			}
		}
	}
	return mark
}

// RandomInputs draws a uniform random primary-input vector.
func (c *Circuit) RandomInputs(rng *rand.Rand) []bool {
	v := make([]bool, len(c.PIs))
	for i := range v {
		v[i] = rng.Intn(2) == 1
	}
	return v
}

// RandomKey draws a uniform random key vector.
func (c *Circuit) RandomKey(rng *rand.Rand) []bool {
	v := make([]bool, len(c.Keys))
	for i := range v {
		v[i] = rng.Intn(2) == 1
	}
	return v
}

// Stats summarises a netlist for reporting (Table I columns).
type Stats struct {
	Name    string
	Inputs  int
	Keys    int
	Gates   int // logic gates only, matching the paper's "Gates" column
	Outputs int
	Depth   int
}

// Summary computes the Stats of the circuit.
func (c *Circuit) Summary() Stats {
	_, depth := c.Levels()
	return Stats{
		Name:    c.Name,
		Inputs:  len(c.PIs),
		Keys:    len(c.Keys),
		Gates:   c.NumLogicGates(),
		Outputs: len(c.POs),
		Depth:   depth,
	}
}
