package server

import (
	"context"
	"errors"
	"time"

	"statsat"
	"statsat/internal/engine"
)

// execute runs an admitted job to a terminal state. ctx is the job's
// own context (derived from the server's base context at admission, so
// both DELETE /v1/jobs/{id} and server shutdown interrupt it); the
// spec's timeout, when set, is layered on top here so it measures run
// time, not queue time.
//
// Interrupted runs (errors.Is ErrInterrupted) keep their best-effort
// partial outcome and settle as cancelled — the engine has already
// flushed the `interrupted` trace event into the job's stream by the
// time the *Ctx entry point returns (docs/ARCHITECTURE.md).
func (j *Job) execute(ctx context.Context) {
	if !j.tryStart() {
		return // cancelled while queued
	}
	if j.Spec.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	out, err := j.runAttack(ctx)
	switch {
	case err == nil:
		j.finish(StateDone, out, nil)
	case errors.Is(err, statsat.ErrInterrupted):
		j.finish(StateCancelled, out, err)
	case errors.Is(err, statsat.ErrNoInstances):
		// Every instance died: the attack ran to completion and the
		// empty key set is the (reportable) answer, not a server fault.
		j.finish(StateDone, out, err)
	default:
		j.finish(StateFailed, out, err)
	}
}

// runAttack dispatches the job to the matching statsat facade *Ctx
// entry point and folds the engine-specific result into the uniform
// Outcome. A non-nil Outcome comes back with ErrInterrupted (the
// partial-result contract) as well as on success.
//
// On the persistent path the materialized oracle is wrapped in a
// journal: a recovered job first replays its taped interaction prefix
// (byte-identical answers, no chip queries), then goes live with the
// noise stream skipped to the tape's end — so a resumed attack's
// trajectory, keys and query counters match an uninterrupted run of
// the same spec exactly (docs/ARCHITECTURE.md "Checkpoint contract").
// A tape from another trajectory breaks that promise: the journal
// drops it at the first mismatch, and the Outcome says so.
func (j *Job) runAttack(ctx context.Context) (outcome *Outcome, err error) {
	mat, o := j.mat, j.Spec.Options
	orc := mat.orc
	if j.tape != nil || j.sinks.tape != nil {
		journal := statsat.NewJournalOracle(orc, j.tape, j.sinks.tape)
		orc = journal
		defer func() {
			if outcome != nil && journal.Diverged() {
				outcome.TapeDiverged = true
			}
		}()
	}
	epsG := o.EpsG
	if epsG == 0 {
		epsG = j.Spec.Eps
	}
	switch mat.attack {
	case "statsat":
		opts := statsat.Options{
			Ns: o.Ns, NSatis: o.NSatis, NEval: o.NEval, NInst: o.NInst,
			ULambda: o.ULambda, ELambda: o.ELambda, EpsG: epsG,
			MaxTotalIter: o.MaxIter, Seed: j.Spec.Seed,
			Tracer: j.tracer(), Checkpoint: j.sinks.ckpt,
		}
		res, err := statsat.AttackCtx(ctx, mat.locked, orc, opts)
		if res == nil {
			return nil, err
		}
		out := &Outcome{
			Iterations:    res.TotalIterations,
			OracleQueries: res.OracleQueries,
			EvalQueries:   res.EvalQueries,
			AttackNs:      res.AttackDuration.Nanoseconds(),
			Instances:     res.InstancesCreated,
			Forks:         res.Forks,
			ForceProceeds: res.ForceProceeds,
			DeadInstances: res.DeadInstances,
			Truncated:     res.Truncated,
		}
		for _, k := range res.Keys {
			out.Keys = append(out.Keys, KeyReport{
				Key: engine.BitString(k.Key), FM: k.FM, HD: k.HD,
				Correct:    j.keyCorrect(k.Key),
				Iterations: k.Iterations, Instance: k.Instance,
			})
		}
		return j.noteInterrupt(out, err), err
	case "sat":
		res, err := statsat.StandardSATOptCtx(ctx, mat.locked, orc, statsat.SATOptions{
			MaxIter: o.MaxIter, Tracer: j.tracer(), Checkpoint: j.sinks.ckpt,
		})
		if res == nil {
			return nil, err
		}
		return j.noteInterrupt(j.baselineOutcome(res), err), err
	case "psat":
		res, err := statsat.PSATCtx(ctx, mat.locked, orc, statsat.PSATOptions{
			Ns: o.Ns, MaxIter: o.MaxIter, Seed: j.Spec.Seed, Tracer: j.tracer(),
			Checkpoint: j.sinks.ckpt,
		})
		if res == nil {
			return nil, err
		}
		return j.noteInterrupt(j.baselineOutcome(res), err), err
	case "appsat":
		res, err := statsat.AppSATCtx(ctx, mat.locked, orc, statsat.AppSATOptions{
			MaxIter: o.MaxIter, Seed: j.Spec.Seed, Tracer: j.tracer(),
			Checkpoint: j.sinks.ckpt,
		})
		if res == nil {
			return nil, err
		}
		out := j.baselineOutcome(&res.Result)
		out.Rounds = res.Rounds
		out.EarlyExit = res.EarlyExit
		return j.noteInterrupt(out, err), err
	}
	return nil, specErrf("unknown attack %q", mat.attack) // unreachable after materialize
}

// baselineOutcome folds a single-instance engine result.
func (j *Job) baselineOutcome(res *statsat.BaselineResult) *Outcome {
	out := &Outcome{
		Iterations:    res.Iterations,
		OracleQueries: res.OracleQueries,
		AttackNs:      res.Duration.Nanoseconds(),
		Failed:        res.Failed,
	}
	if res.Key != nil {
		out.Keys = []KeyReport{{
			Key: engine.BitString(res.Key), Correct: j.keyCorrect(res.Key),
			Iterations: res.Iterations,
		}}
	}
	return out
}

// noteInterrupt stamps the partial-result marker on interrupted
// outcomes.
func (j *Job) noteInterrupt(out *Outcome, err error) *Outcome {
	if err != nil && errors.Is(err, statsat.ErrInterrupted) {
		out.Interrupted = true
		out.InterruptCause = err.Error()
	}
	return out
}

// keyCorrect decides exact key equivalence against the ground truth.
// The server always knows the true key (it simulates the chip), so
// every reported key carries a definitive verdict — equivalence-check
// failures (malformed widths) just report false.
func (j *Job) keyCorrect(key []bool) bool {
	if len(key) != len(j.mat.key) {
		return false
	}
	eq, err := statsat.KeysEquivalent(j.mat.locked, key, j.mat.key)
	return err == nil && eq
}
