// Package fixture exercises the seedflow check: every seed position —
// an argument bound to a seed-named parameter, or an assignment,
// declaration or composite-literal field with a seed-named target —
// must be a fixed constant or derive visibly from a seed-named input
// or a deriveSeed-style call. Expected findings are marked with
// `// want`.
package fixture

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
)

// Options carries the run's base seed, the root every derivation
// traces back to.
type Options struct {
	Seed int64
}

type runConfig struct {
	Seed int64
	N    int
}

// deriveSeed mixes run coordinates into a per-stream seed — the
// sanctioned derivation shape; its name roots any expression it
// appears in.
func deriveSeed(base int64, inst, iter int) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(base))
	h.Write(buf[:])
	return int64(h.Sum64()) ^ int64(inst)*7919 ^ int64(iter)
}

// scramble is an opaque transformation: the result is deterministic
// but its provenance is invisible at the call site.
func scramble(x int64) int64 {
	return x*6364136223846793005 + 1442695040888963407
}

// goodDerived: a deriveSeed-style call is a root.
func goodDerived(opts Options, inst int) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(opts.Seed, inst, 0)))
}

// goodArith: arithmetic over a seed-named input is transparent; the
// loop index is a neutral coordinate.
func goodArith(opts Options, inst int) *rand.Rand {
	return rand.New(rand.NewSource(opts.Seed + int64(inst)*7919))
}

// goodFixed: a whole-expression constant is auditable in place.
func goodFixed() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

// goodNamedBase: a seed-named constant roots the derivation even
// though the expression is built from a constant and an index.
func goodNamedBase(inst int) *rand.Rand {
	const seedBase int64 = 1000
	return rand.New(rand.NewSource(seedBase + int64(inst)))
}

// goodIndexed: indexing a seed-named table keeps the provenance.
func goodIndexed(seeds []int64, inst int) *rand.Rand {
	return rand.New(rand.NewSource(seeds[inst]))
}

// goodIndirect: a source built one statement up and wrapped later is
// vetted where it is seeded.
func goodIndirect(seed int64) *rand.Rand {
	src := rand.NewSource(seed)
	return rand.New(src)
}

// goodSpec: a declaration with a seed-named target rooted in a
// seed-named input.
func goodSpec(opts Options, inst int) int64 {
	var streamSeed = opts.Seed ^ int64(inst)
	return streamSeed
}

// goodField: composite-literal seed fields take derived values.
func configs(opts Options, n int) []runConfig {
	out := make([]runConfig, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, runConfig{Seed: deriveSeed(opts.Seed, i, 0), N: i})
	}
	return out
}

// goodAssign: reseeding from the previous seed plus coordinates.
func reseedGood(cfg *runConfig, workerID int) {
	cfg.Seed = deriveSeed(cfg.Seed, workerID, 1)
}

// badBare: a bare loop/worker index has no visible provenance.
func badBare(inst int) *rand.Rand {
	return rand.New(rand.NewSource(int64(inst) * 2654435761)) // want `\[seedflow\] seed value has no visible provenance`
}

// badIndirect: wrapping the source afterwards does not hide a
// coordinate-only seed.
func badIndirect(inst int) *rand.Rand {
	src := rand.NewSource(int64(inst)) // want `\[seedflow\] seed value has no visible provenance`
	return rand.New(src)
}

// badOpaque: the provenance is hidden behind a non-seed-named call.
func badOpaque(opts Options) *rand.Rand {
	return rand.New(rand.NewSource(scramble(opts.Seed))) // want `\[seedflow\] seed derived through call to scramble`
}

// badAssign: assigning a raw worker ID to a seed-named field.
func reseedBad(cfg *runConfig, workerID int) {
	cfg.Seed = int64(workerID) // want `\[seedflow\] seed value has no visible provenance`
}

// badField: a composite-literal seed built from an arbitrary counter.
func badConfig(ticks int64) runConfig {
	return runConfig{Seed: ticks * 3} // want `\[seedflow\] seed value has no visible provenance`
}
