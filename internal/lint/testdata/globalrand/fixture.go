// Package fixture exercises the globalrand check: the global
// math/rand source is forbidden. Expected findings are marked with
// `// want`.
package fixture

import "math/rand"

func badGlobalCall(n int) int {
	return rand.Intn(n) // want `\[globalrand\] use of global math/rand\.Intn`
}

func badGlobalValue() func() float64 {
	return rand.Float64 // want `\[globalrand\] use of global math/rand\.Float64`
}

func badShuffle(xs []int, n int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `\[globalrand\] use of global math/rand\.Shuffle`
}

func goodSeededNew(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func goodExplicitRand(rng *rand.Rand, n int) int {
	return rng.Intn(n)
}

type goodHolder struct {
	rng *rand.Rand
}

func (h *goodHolder) draw() float64 {
	return h.rng.Float64()
}
