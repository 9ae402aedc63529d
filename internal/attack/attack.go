// Package attack implements the two baseline oracle-guided attacks the
// paper compares against:
//
//   - the standard SAT attack (Subramanyan et al., HOST'15 / El Massad
//     et al., NDSS'15) for deterministic oracles (§II-B), and
//   - PSAT (Patnaik et al., TCAD'19), the probabilistic variant that
//     queries the oracle Ns times per distinguishing input and commits
//     to a single whole output pattern — the dominant one if one
//     exists, otherwise one sampled by frequency (§III).
//
// Both are thin adapters over the shared loop in internal/engine: they
// contribute only a Strategy (how to answer a distinguishing input)
// and let the engine own iteration, tracing and cancellation. StatSAT
// itself lives in internal/core.
package attack

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"statsat/internal/circuit"
	"statsat/internal/engine"
	"statsat/internal/oracle"
	"statsat/internal/trace"
)

// ErrIterationLimit is returned when an attack exceeds its iteration
// budget without converging. It is the engine's sentinel, re-exported
// so existing callers keep comparing against attack.ErrIterationLimit.
var ErrIterationLimit = engine.ErrIterationLimit

// ErrInterrupted matches any attack stopped by context cancellation or
// deadline expiry (errors.Is). Interrupted attacks return it together
// with a non-nil best-effort Result.
var ErrInterrupted = engine.ErrInterrupted

// Result reports the outcome of a baseline attack.
type Result = engine.Result

// InterruptedError carries the cancellation cause and the progress
// made; see engine.InterruptedError.
type InterruptedError = engine.InterruptedError

// SATOptions configures StandardSATOpt.
type SATOptions struct {
	// MaxIter bounds the number of DIP iterations (0 = 1<<20).
	MaxIter int
	// Tracer, if set, receives structured trace events (the same
	// schema as StatSAT; see docs/OBSERVABILITY.md).
	Tracer trace.Tracer
	// Checkpoint, if set, receives a progress checkpoint after every
	// engine Step (the durable-resume boundary; see
	// docs/ARCHITECTURE.md "Checkpoint contract").
	Checkpoint engine.CheckpointSink
}

// StandardSAT runs the classic SAT attack against a (deterministic)
// oracle. maxIter bounds the number of DIP iterations (0 = 1<<20).
func StandardSAT(ctx context.Context, locked *circuit.Circuit, orc oracle.Oracle, maxIter int) (*Result, error) {
	return StandardSATOpt(ctx, locked, orc, SATOptions{MaxIter: maxIter})
}

// StandardSATOpt is StandardSAT with the full option set. On context
// cancellation it returns the best-effort partial result alongside an
// error matching ErrInterrupted.
func StandardSATOpt(ctx context.Context, locked *circuit.Circuit, orc oracle.Oracle, opts SATOptions) (*Result, error) {
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 1 << 20
	}
	if locked.NumPIs() != orc.NumInputs() || locked.NumPOs() != orc.NumOutputs() {
		return nil, fmt.Errorf("attack: netlist/oracle interface mismatch (%d/%d in, %d/%d out)",
			locked.NumPIs(), orc.NumInputs(), locked.NumPOs(), orc.NumOutputs())
	}
	eng := &engine.Engine{Locked: locked, Orc: orc, Tr: trace.NewEmitter(opts.Tracer), Ckpt: opts.Checkpoint}
	res := &Result{}
	st := &satStrategy{eng: eng, res: res}
	cfg := engine.Config{Name: "sat", MaxIter: maxIter, Opts: &trace.OptionsInfo{MaxIter: maxIter}}
	return finishRun(res, eng.Run(ctx, cfg, st, res))
}

// finishRun maps an engine.Run error to the baseline return contract:
// interrupted runs keep their best-effort result, every other error
// discards it.
func finishRun(res *Result, err error) (*Result, error) {
	if err == nil {
		return res, nil
	}
	if errors.Is(err, ErrInterrupted) {
		return res, err
	}
	return nil, err
}

// satStrategy answers each DIP with a single deterministic oracle
// query and records the full I/O pair.
type satStrategy struct {
	eng *engine.Engine
	res *Result
}

//lint:ignore ctxflow Strategy interface compliance: the engine checks ctx in Step right before Respond, and the single deterministic oracle query cannot block
func (s *satStrategy) Respond(ctx context.Context, inst *engine.Instance, x []bool) (string, bool, error) {
	y := s.eng.Orc.Query(x)
	if err := engine.InstallDIP(inst, x, y); err != nil {
		return "", false, err
	}
	emitFullDIP(s.eng, inst, x, y)
	return "dip", false, nil
}

func (s *satStrategy) Converged(ctx context.Context, inst *engine.Instance) error {
	return engine.DefaultConverged(ctx, inst, s.res)
}

// emitFullDIP records a fully specified distinguishing I/O pair
// (baselines specify every output bit).
func emitFullDIP(eng *engine.Engine, inst *engine.Instance, x, y []bool) {
	if !eng.Tr.Enabled() {
		return
	}
	eng.EmitDIP(inst, inst.Iterations, &trace.DIPInfo{
		Index: inst.Iterations - 1, X: engine.BitString(x), Y: engine.BitString(y),
		Outputs: len(y), Specified: len(y),
	})
}

// PSATOptions configures the PSAT baseline.
type PSATOptions struct {
	// Ns is the number of oracle queries per distinguishing input
	// (paper: 500).
	Ns int
	// DominanceThreshold is the pattern frequency above which the most
	// frequent pattern is committed directly; below it a pattern is
	// sampled by frequency. [15] calls such a pattern "dominant"; we
	// use a majority threshold of 0.5 by default.
	DominanceThreshold float64
	// MaxIter bounds DIP iterations (0 = 1<<20).
	MaxIter int
	// Seed drives the frequency-sampling randomness.
	Seed int64
	// Tracer, if set, receives structured trace events (the same
	// schema as StatSAT; see docs/OBSERVABILITY.md).
	Tracer trace.Tracer
	// Checkpoint, if set, receives a progress checkpoint after every
	// engine Step (see docs/ARCHITECTURE.md "Checkpoint contract").
	Checkpoint engine.CheckpointSink
}

func (o *PSATOptions) setDefaults() {
	if o.Ns <= 0 {
		o.Ns = 500
	}
	if o.DominanceThreshold <= 0 {
		o.DominanceThreshold = 0.5
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1 << 20
	}
}

// PSAT runs the probabilistic-SAT baseline: per DIP, the oracle is
// sampled Ns times; the committed output pattern is the dominant one,
// or one drawn from the empirical pattern distribution. All output
// bits are always specified — the design decision StatSAT criticises —
// so a single mis-committed pattern can drive the formula UNSAT
// (Failed=true) or eliminate the correct key silently.
func PSAT(ctx context.Context, locked *circuit.Circuit, orc oracle.Oracle, opts PSATOptions) (*Result, error) {
	opts.setDefaults()
	if locked.NumPIs() != orc.NumInputs() || locked.NumPOs() != orc.NumOutputs() {
		return nil, fmt.Errorf("attack: netlist/oracle interface mismatch")
	}
	eng := &engine.Engine{Locked: locked, Orc: orc, Tr: trace.NewEmitter(opts.Tracer), Ckpt: opts.Checkpoint}
	res := &Result{}
	st := &psatStrategy{
		eng: eng, res: res, opts: opts,
		rng: rand.New(rand.NewSource(opts.Seed)),
	}
	cfg := engine.Config{
		Name: "psat", MaxIter: opts.MaxIter,
		Opts: &trace.OptionsInfo{Ns: opts.Ns, MaxIter: opts.MaxIter},
	}
	return finishRun(res, eng.Run(ctx, cfg, st, res))
	// A wrong committed pattern may make the formulas UNSAT; the next
	// Step detects it as convergence with Failed set.
}

// psatStrategy answers each DIP with Ns oracle samples collapsed to a
// single committed pattern.
type psatStrategy struct {
	eng  *engine.Engine
	res  *Result
	opts PSATOptions
	rng  *rand.Rand
}

func (s *psatStrategy) Respond(ctx context.Context, inst *engine.Instance, x []bool) (string, bool, error) {
	y := choosePattern(ctx, s.eng.Orc, x, s.opts.Ns, s.opts.DominanceThreshold, s.rng)
	if err := engine.InstallDIP(inst, x, y); err != nil {
		return "", false, err
	}
	emitFullDIP(s.eng, inst, x, y)
	return "dip", false, nil
}

func (s *psatStrategy) Converged(ctx context.Context, inst *engine.Instance) error {
	return engine.DefaultConverged(ctx, inst, s.res)
}

// choosePattern implements [15]'s pattern selection: dominant pattern
// if its frequency exceeds the threshold, else frequency-weighted
// sampling.
func choosePattern(ctx context.Context, orc oracle.Oracle, x []bool, ns int, threshold float64, rng *rand.Rand) []bool {
	counts := oracle.PatternCounts(ctx, orc, x, ns)
	// Deterministic iteration order for reproducibility.
	pats := make([]string, 0, len(counts))
	for p := range counts {
		pats = append(pats, p)
	}
	sort.Strings(pats)
	best, bestN := "", -1
	for _, p := range pats {
		if counts[p] > bestN {
			best, bestN = p, counts[p]
		}
	}
	if float64(bestN) > threshold*float64(ns) {
		return oracle.PatternToBits(best)
	}
	r := rng.Intn(ns)
	acc := 0
	for _, p := range pats {
		acc += counts[p]
		if r < acc {
			return oracle.PatternToBits(p)
		}
	}
	return oracle.PatternToBits(best)
}
