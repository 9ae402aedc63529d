package attack

import (
	"context"
	"fmt"
	"math/rand"

	"statsat/internal/circuit"
	"statsat/internal/engine"
	"statsat/internal/oracle"
	"statsat/internal/sat"
	"statsat/internal/trace"
)

// AppSATOptions configures the AppSAT baseline (Shamsi et al.,
// HOST'17): the approximate SAT attack the paper's footnote 2 rules
// out for probabilistic oracles. AppSAT interleaves classic DIP
// iterations with random-query reconciliation rounds and terminates
// early once the candidate key's empirical error rate drops below a
// threshold, returning an *approximate* key.
type AppSATOptions struct {
	// QueryInterval is the number of DIP iterations between
	// reconciliation rounds (default 12).
	QueryInterval int
	// RandomQueries is the number of random patterns per round
	// (default 50).
	RandomQueries int
	// ErrorThreshold is the accepted fraction of mismatching random
	// patterns (default 0: exact agreement on the sample).
	ErrorThreshold float64
	// MaxIter bounds DIP iterations (0 = 1<<20).
	MaxIter int
	// Seed drives the random pattern generator.
	Seed int64
	// Tracer, if set, receives structured trace events (the same
	// schema as the other attacks; see docs/OBSERVABILITY.md).
	Tracer trace.Tracer
	// Checkpoint, if set, receives a progress checkpoint after every
	// engine Step (see docs/ARCHITECTURE.md "Checkpoint contract").
	Checkpoint engine.CheckpointSink
}

func (o *AppSATOptions) setDefaults() {
	if o.QueryInterval <= 0 {
		o.QueryInterval = 12
	}
	if o.RandomQueries <= 0 {
		o.RandomQueries = 50
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1 << 20
	}
}

// AppSATResult extends Result with the reconciliation statistics.
type AppSATResult struct {
	Result
	// Rounds counts reconciliation rounds executed.
	Rounds int
	// FinalErrorRate is the last measured random-query error rate of
	// the returned key (0 when the attack converged via UNSAT).
	FinalErrorRate float64
	// EarlyExit is set when the error threshold triggered termination
	// before the miter went UNSAT (the "approximate key" case).
	EarlyExit bool
}

// AppSAT runs the approximate SAT attack. Against a deterministic
// oracle it recovers an exact or approximate key. Against a
// probabilistic oracle it inherits the classic attack's failure mode —
// noisy responses recorded as hard constraints drive the formula
// UNSAT — which is exactly why the paper develops StatSAT instead.
func AppSAT(ctx context.Context, locked *circuit.Circuit, orc oracle.Oracle, opts AppSATOptions) (*AppSATResult, error) {
	opts.setDefaults()
	if locked.NumPIs() != orc.NumInputs() || locked.NumPOs() != orc.NumOutputs() {
		return nil, fmt.Errorf("attack: netlist/oracle interface mismatch")
	}
	eng := &engine.Engine{Locked: locked, Orc: orc, Tr: trace.NewEmitter(opts.Tracer), Ckpt: opts.Checkpoint}
	res := &AppSATResult{}
	st := &appSATStrategy{
		eng: eng, res: res, opts: opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		scratch: make([]bool, locked.NumGates()),
	}
	cfg := engine.Config{Name: "appsat", MaxIter: opts.MaxIter}
	r, err := finishRun(&res.Result, eng.Run(ctx, cfg, st, &res.Result))
	if r == nil {
		return nil, err
	}
	return res, err
}

// appSATStrategy interleaves classic DIP recording with random-query
// reconciliation rounds (the AppSAT augmentation).
type appSATStrategy struct {
	eng     *engine.Engine
	res     *AppSATResult
	opts    AppSATOptions
	rng     *rand.Rand
	scratch []bool
}

func (s *appSATStrategy) Converged(ctx context.Context, inst *engine.Instance) error {
	return engine.DefaultConverged(ctx, inst, &s.res.Result)
}

func (s *appSATStrategy) Respond(ctx context.Context, inst *engine.Instance, x []bool) (string, bool, error) {
	y := s.eng.Orc.Query(x)
	if err := engine.InstallDIP(inst, x, y); err != nil {
		return "", false, err
	}
	if inst.Iterations%s.opts.QueryInterval != 0 {
		return "dip", false, nil
	}

	// Reconciliation round.
	s.res.Rounds++
	switch inst.KS.S.SolveCtx(ctx) {
	case sat.Sat:
	case sat.Unknown:
		if err := ctx.Err(); err != nil {
			return "", false, &engine.InterruptedError{Cause: err, Instance: inst.ID, Iterations: inst.Iterations}
		}
		fallthrough
	default:
		s.res.Failed = true
		s.res.Key = nil
		return "dead", true, nil
	}
	key := inst.KS.Key()
	locked := s.eng.Locked
	mismatches := 0
	var badX, badY [][]bool
	for q := 0; q < s.opts.RandomQueries; q++ {
		rx := locked.RandomInputs(s.rng)
		ry := s.eng.Orc.Query(rx)
		got := locked.Eval(rx, key, s.scratch)
		same := true
		for i := range ry {
			if got[i] != ry[i] {
				same = false
				break
			}
		}
		if !same {
			mismatches++
			badX = append(badX, rx)
			badY = append(badY, ry)
		}
	}
	s.res.FinalErrorRate = float64(mismatches) / float64(s.opts.RandomQueries)
	if s.res.FinalErrorRate <= s.opts.ErrorThreshold {
		s.res.EarlyExit = true
		s.res.Failed = false
		s.res.Key = key
		return "accept", true, nil
	}
	// Feed the failing patterns back as constraints.
	for i := range badX {
		if err := engine.InstallDIP(inst, badX[i], badY[i]); err != nil {
			return "", false, err
		}
	}
	return "dip", false, nil
}
