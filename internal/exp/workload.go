package exp

import (
	"context"
	"fmt"
	"math/rand"

	"statsat/internal/circuit"
	"statsat/internal/core"
	"statsat/internal/gen"
	"statsat/internal/lock"
	"statsat/internal/metrics"
	"statsat/internal/oracle"
)

// Workload is one locked benchmark ready to attack.
type Workload struct {
	Bench  gen.Benchmark
	Orig   *circuit.Circuit
	Locked *lock.Locked
}

// LockName reports the locking technique (Table II's "Lock" column).
func (w Workload) LockName() string { return w.Locked.Technique }

// BuildWorkload synthesises the stand-in circuit at the profile's
// scale and locks it the way the paper does: SLL for ex1010, RLL for
// c880 (Table V's "32-bit key" random locking), SFLL-HD^0 for the
// rest.
func BuildWorkload(p Profile, name string) (Workload, error) {
	bm, ok := gen.ByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("exp: unknown benchmark %q", name)
	}
	// Clamp the scale so every workload keeps at least ~100 gates —
	// deep scaling would otherwise degenerate small circuits (c880)
	// into netlists with fewer gates than key bits.
	scale := p.Scale
	if scale > 1 && bm.Gates/scale < 100 {
		scale = bm.Gates / 100
		if scale < 1 {
			scale = 1
		}
	}
	orig := bm.BuildScaled(scale)
	rng := rand.New(rand.NewSource(p.Seed ^ bm.Seed))
	var (
		l   *lock.Locked
		err error
	)
	switch name {
	case "ex1010":
		keys := p.SLLKeyBits
		if max := orig.NumLogicGates() / 2; keys > max {
			keys = max
		}
		l, err = lock.SLL(orig, keys, rng)
	case "c880":
		l, err = lock.RLL(orig, p.C880KeyBits, rng)
	default:
		keys := p.SFLLKeyBits
		if keys > orig.NumPIs() {
			keys = orig.NumPIs()
		}
		l, err = lock.SFLLHD(orig, keys, 0, rng)
	}
	if err != nil {
		return Workload{}, fmt.Errorf("exp: locking %s: %w", name, err)
	}
	// Warm the lazily built caches now (NumLogicOps compiles the
	// evaluation program on top of the topological order): attack runs
	// on different scheduler workers share the circuit read-only, and
	// these caches are the only fields evaluation would otherwise write.
	orig.NumLogicOps()
	l.Circuit.NumLogicOps()
	return Workload{Bench: bm, Orig: orig, Locked: l}, nil
}

// attackOpts builds core.Options from the profile.
func (p Profile) attackOpts(epsG float64, nInst int, seed int64) core.Options {
	return core.Options{
		Ns:           p.Ns,
		NSatis:       p.NSatis,
		NEval:        p.NEval,
		EvalNs:       p.EvalNs,
		NInst:        nInst,
		EpsG:         epsG,
		MaxTotalIter: p.MaxTotalIter,
		Seed:         seed,
	}
}

// RunOutcome is one attack run with its ground-truth verdict.
type RunOutcome struct {
	Res     *core.Result
	NInst   int
	Correct bool // best key ≡ ground-truth key
	// CorrectAny marks whether ANY returned key is equivalent.
	CorrectAny bool
}

// runAttack performs one StatSAT run and checks the keys against the
// ground truth. When the profile enables tracing, the run's events are
// recorded to a fresh JSON-lines file under p.TraceDir named after
// tag, the run's unique coordinate string (so concurrent runs never
// share a file and names are stable across worker counts).
func runAttack(ctx context.Context, p Profile, w Workload, eps float64, opts core.Options, oracleSeed int64, tag string) (RunOutcome, error) {
	orc := oracle.NewProbabilistic(w.Locked.Circuit, w.Locked.Key, eps, oracleSeed)
	closeTrace := p.attachTrace(&opts, tag)
	defer closeTrace()
	res, err := core.Attack(ctx, w.Locked.Circuit, orc, opts)
	if err == core.ErrNoInstances {
		return RunOutcome{Res: res, NInst: opts.NInst}, nil
	}
	if err != nil {
		// Interrupted runs carry a best-effort result, but a half-run
		// cell is not table data: propagate so the scheduler stops and
		// the completed prefix is flushed.
		return RunOutcome{}, err
	}
	out := RunOutcome{Res: res, NInst: opts.NInst}
	for i := range res.Keys {
		eq, err := metrics.KeysEquivalent(w.Locked.Circuit, res.Keys[i].Key, w.Locked.Key)
		if err != nil {
			return RunOutcome{}, err
		}
		if eq {
			out.CorrectAny = true
			if i == 0 {
				out.Correct = true
			}
		}
	}
	return out, nil
}

// runDoubling reruns the attack with N_inst = 1, 2, 4, ... (the
// paper's Table II protocol) until the correct key is found or the
// profile cap is hit; it returns the successful outcome (or the last
// attempt). Following §V(A), a run that fails to produce *any* key is
// retried once with lowered U_lambda / E_lambda thresholds. All
// randomness is derived from the run's coordinates (tag, technique,
// eps, N_inst), never from execution order.
func runDoubling(ctx context.Context, p Profile, w Workload, eps float64, tag string) (RunOutcome, error) {
	var last RunOutcome
	for nInst := 1; nInst <= p.MaxNInst; nInst *= 2 {
		runTag := fmt.Sprintf("%s_n%d", tag, nInst)
		seed := deriveSeed(p.Seed, "attack", w.Bench.Name, w.LockName(), eps, tag, nInst)
		opts := p.attackOpts(eps, nInst, seed)
		oseed := deriveSeed(p.Seed, "oracle", w.Bench.Name, w.LockName(), eps, tag, nInst)
		out, err := runAttack(ctx, p, w, eps, opts, oseed, runTag)
		if err != nil {
			return RunOutcome{}, err
		}
		if out.Res == nil || len(out.Res.Keys) == 0 {
			// "If the attack doesn't find a single key, we restart
			// with lower values of one/both."
			opts.ULambda = 0.15
			opts.ELambda = 0.20
			oseed = deriveSeed(p.Seed, "oracle-retry", w.Bench.Name, w.LockName(), eps, tag, nInst)
			out, err = runAttack(ctx, p, w, eps, opts, oseed, runTag+"_retry")
			if err != nil {
				return RunOutcome{}, err
			}
		}
		last = out
		if out.CorrectAny {
			return out, nil
		}
	}
	return last, nil
}

// newSeededRand builds a deterministic RNG for harness-side sampling.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
