// Package engine owns the oracle-guided attack loop shared by every
// attack in this repository. The classic SAT attack, PSAT, AppSAT
// (internal/attack) and StatSAT (internal/core) all iterate the same
// skeleton — solve the miter, extract a distinguishing input, ask the
// oracle, constrain the solvers, repeat until UNSAT — and differ only
// in how they answer a DIP and how they declare convergence. That
// variable part is the Strategy interface; the invariant part
// (miter/key-solver lifecycle, iteration bookkeeping, trace emission,
// cancellation, best-effort result extraction) lives here exactly
// once.
//
// Two entry points:
//
//   - Engine.Run drives a complete single-instance attack (the
//     baselines) including the attack_start/attack_end envelope;
//   - Engine.Step performs one iteration for one instance, which
//     multi-instance schedulers (StatSAT's fork tree) call directly.
//
// Cancellation contract: every Step checks the context through
// sat.Solver.SolveCtx (amortized over conflicts). On cancellation or
// deadline expiry the attack stops with a *InterruptedError — which
// matches both ErrInterrupted and the context cause via errors.Is —
// and the caller still receives a best-effort result. See
// docs/ARCHITECTURE.md for the full contract.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"statsat/internal/circuit"
	"statsat/internal/cnf"
	"statsat/internal/oracle"
	"statsat/internal/sat"
	"statsat/internal/trace"
)

// ErrIterationLimit is returned when an attack exceeds its iteration
// budget without converging.
var ErrIterationLimit = errors.New("attack: iteration limit exceeded")

// ErrInterrupted is the sentinel every interrupted attack matches:
// errors.Is(err, ErrInterrupted) holds for any *InterruptedError.
// Interrupted attacks return it alongside a non-nil best-effort
// result, never instead of one.
var ErrInterrupted = errors.New("attack: interrupted")

// InterruptedError reports a cancelled or deadlined attack: the
// context cause plus how far the run got. It matches ErrInterrupted
// via Is and the underlying context error (context.Canceled /
// context.DeadlineExceeded) via Unwrap.
type InterruptedError struct {
	// Cause is the context's error at interrupt time.
	Cause error
	// Instance is the SAT instance that observed the interrupt.
	Instance int
	// Iterations counts iterations completed before the interrupt
	// (the interrupting instance's counter for single-instance runs,
	// the global total for StatSAT).
	Iterations int
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("attack: interrupted at instance %d after %d iterations: %v",
		e.Instance, e.Iterations, e.Cause)
}

// Unwrap exposes the context cause to errors.Is/As chains.
func (e *InterruptedError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrInterrupted) succeed for any
// InterruptedError regardless of cause.
func (e *InterruptedError) Is(target error) bool { return target == ErrInterrupted }

// Result reports the outcome of a single-instance oracle-guided
// attack (the baselines; StatSAT aggregates a richer core.Result).
type Result struct {
	// Key is the recovered key, nil if the attack failed (PSAT's CNF
	// can become unsatisfiable when a wrong pattern is recorded). On
	// an interrupted run it holds the best-effort key candidate
	// satisfying the DIPs recorded so far, when one exists.
	Key []bool
	// Iterations is the number of distinguishing inputs processed.
	Iterations int
	// Duration is the wall-clock attack time (T_attack).
	Duration time.Duration
	// OracleQueries counts total chip queries.
	OracleQueries int64
	// Failed is set when the formula became UNSAT before a key was
	// produced (inconsistent DIPs — the §III failure mode).
	Failed bool
}

// Instance is one SAT formulation of the attack: the miter whose
// models are distinguishing inputs, the key solver accumulating the
// recorded DIP constraints, and the iteration counter. Multi-instance
// attacks embed it and fork clones.
type Instance struct {
	// ID names the instance in trace events (root/single = 0).
	ID int
	// M is the miter solver (two keyed copies disagreeing on x).
	M *cnf.Miter
	// KS is the key solver (one copy per recorded DIP).
	KS *cnf.KeySolver
	// Iterations counts DIP iterations completed by this instance.
	Iterations int
}

// Strategy is the attack-specific part of the loop.
type Strategy interface {
	// Respond handles a satisfiable miter: x is the distinguishing
	// input just extracted (Instance.Iterations has already been
	// advanced to count it). The strategy queries the oracle,
	// constrains the solvers and returns the iteration outcome for
	// the iteration_end trace event ("dip", "repeat", "dead", ...).
	// done terminates the loop early (AppSAT's approximate exit).
	Respond(ctx context.Context, inst *Instance, x []bool) (status string, done bool, err error)
	// Converged handles an unsatisfiable miter: no distinguishing
	// input remains, so the recorded constraints pin the key class.
	// Called before the final iteration_end("unsat") event, which is
	// where StatSAT emits key_accepted/instance_dead.
	Converged(ctx context.Context, inst *Instance) error
}

// Engine bundles what every iteration needs: the attacked netlist,
// the oracle, and the trace emitter. One Engine serves all instances
// of a run.
type Engine struct {
	Locked *circuit.Circuit
	Orc    oracle.Oracle
	// Tr stamps and forwards trace events; nil-safe (all emits
	// no-op when no tracer is configured).
	Tr *trace.Emitter
	// StartQ is subtracted from the oracle's cumulative counter when
	// stamping events: the baselines stamp queries relative to attack
	// start, StatSAT stamps the absolute shared-chip counter (0).
	StartQ int64
	// Ckpt, when non-nil, receives a Checkpoint after every completed
	// Step — the durable-resume boundary (see checkpoint.go).
	Ckpt CheckpointSink
}

// NewInstance builds a fresh instance (miter + key solver) for the
// engine's circuit. Both work on the one simplified netlist NewMiter
// builds.
func (e *Engine) NewInstance(id int) (*Instance, error) {
	m, err := cnf.NewMiter(e.Locked)
	if err != nil {
		return nil, err
	}
	return &Instance{ID: id, M: m, KS: cnf.NewKeySolver(m.C)}, nil
}

// Step runs one iteration of the shared loop for inst: emit the
// pre-solve snapshot, solve the miter under ctx, and dispatch to the
// strategy. It returns done=true when the loop should stop (converged,
// strategy early-exit, or error). A context interrupt surfaces as a
// *InterruptedError; the caller owns emitting the interrupted event
// and assembling the best-effort result.
func (e *Engine) Step(ctx context.Context, inst *Instance, st Strategy) (bool, error) {
	iter := inst.Iterations + 1
	e.EmitIterStart(inst, iter)
	switch inst.M.S.SolveCtx(ctx) {
	case sat.Unknown:
		if err := ctx.Err(); err != nil {
			return true, &InterruptedError{Cause: err, Instance: inst.ID, Iterations: inst.Iterations}
		}
		return true, fmt.Errorf("attack: instance %d miter solve exceeded budget at iteration %d",
			inst.ID, inst.Iterations)
	case sat.Unsat:
		if err := st.Converged(ctx, inst); err != nil {
			return true, err
		}
		e.EmitIterEnd(inst, iter, "unsat")
		e.emitCkpt(inst)
		return true, nil
	}
	inst.Iterations++
	x := inst.M.Input()
	status, done, err := st.Respond(ctx, inst, x)
	if err != nil {
		return true, err
	}
	e.EmitIterEnd(inst, iter, status)
	e.emitCkpt(inst)
	return done, nil
}

// Config parameterises Run.
type Config struct {
	// Name is the engine name stamped on attack_start ("sat", "psat").
	Name string
	// MaxIter bounds the number of DIP iterations.
	MaxIter int
	// Opts echoes the attack parameters on attack_start.
	Opts *trace.OptionsInfo
}

// Run drives a complete single-instance attack: attack_start, the
// iteration loop via Step, and the closing events. res must be
// non-nil; Run fills its counters in place so strategies may share the
// pointer (AppSAT's reconciliation statistics ride alongside).
//
// Returns ErrIterationLimit (res is then incomplete and should be
// discarded), a *InterruptedError (res holds the best-effort state,
// including a key candidate when one is extractable), or nil.
func (e *Engine) Run(ctx context.Context, cfg Config, st Strategy, res *Result) error {
	e.EmitStart(cfg.Name, cfg.Opts)
	start := time.Now()
	e.StartQ = e.Orc.Queries()
	inst, err := e.NewInstance(0)
	if err != nil {
		return err
	}
	for inst.Iterations < cfg.MaxIter {
		done, err := e.Step(ctx, inst, st)
		if err != nil {
			var ie *InterruptedError
			if errors.As(err, &ie) {
				res.Iterations = inst.Iterations
				res.Duration = time.Since(start)
				res.OracleQueries = e.Orc.Queries() - e.StartQ
				if res.Key == nil {
					res.Key = BestEffortKey(inst.KS)
				}
				e.EmitInterrupted(ie.Cause, inst.Iterations)
				e.EmitSingleEnd(res)
			}
			return err
		}
		if done {
			res.Iterations = inst.Iterations
			res.Duration = time.Since(start)
			res.OracleQueries = e.Orc.Queries() - e.StartQ
			e.EmitSingleOutcome(res)
			e.EmitSingleEnd(res)
			return nil
		}
	}
	return ErrIterationLimit
}

// DefaultConverged is the baseline convergence rule: any key
// satisfying the recorded DIPs is in the equivalence class the miter
// just proved unique, so extract one; an unsatisfiable key solver
// means a wrong pattern was committed (Failed).
func DefaultConverged(ctx context.Context, inst *Instance, res *Result) error {
	switch inst.KS.S.SolveCtx(ctx) {
	case sat.Sat:
		res.Key = inst.KS.Key()
	case sat.Unknown:
		if err := ctx.Err(); err != nil {
			return &InterruptedError{Cause: err, Instance: inst.ID, Iterations: inst.Iterations}
		}
		res.Failed = true
	default:
		res.Failed = true
	}
	return nil
}

// InstallDIP adds one fully specified distinguishing I/O pair to the
// instance's miter and key solvers (the baseline constraint shape;
// StatSAT installs partially specified vectors instead).
func InstallDIP(inst *Instance, x, y []bool) error {
	outA, outB, err := inst.M.AddDIPCopies(x)
	if err != nil {
		return err
	}
	for i := range y {
		cnf.Equal(inst.M.S, outA[i], y[i])
		cnf.Equal(inst.M.S, outB[i], y[i])
	}
	outs, err := inst.KS.AddDIPCopy(x)
	if err != nil {
		return err
	}
	for i := range y {
		cnf.Equal(inst.KS.S, outs[i], y[i])
	}
	return nil
}

// bestEffortConflictBudget bounds the post-interrupt key extraction:
// the context is already dead, so the solve runs under a conflict
// budget instead of a deadline.
const bestEffortConflictBudget = 50000

// BestEffortKey extracts the current key candidate satisfying the
// DIP constraints recorded so far — the "best so far" answer an
// interrupted attack still owes its caller. Returns nil when no
// candidate is found within a bounded search.
func BestEffortKey(ks *cnf.KeySolver) []bool {
	saved := ks.S.ConflictBudget
	ks.S.ConflictBudget = bestEffortConflictBudget
	defer func() { ks.S.ConflictBudget = saved }()
	if ks.S.Solve() == sat.Sat {
		return ks.Key()
	}
	return nil
}
