// Package core implements StatSAT — the paper's contribution: a SAT
// attack on logic-locked circuits whose activated chip (oracle)
// behaves probabilistically.
//
// The attack augments the classic miter-based SAT attack (§II-B) with:
//
//   - signal-probability oracle queries: each distinguishing input is
//     applied Ns times and averaged per output bit (eq. 1);
//   - uncertainty gating: output bits whose uncertainty
//     U_i = min(P_i, 1-P_i) exceeds U_lambda stay unspecified (eq. 2-3);
//   - BER-estimate gating: per-output bit error ratios are estimated
//     with Boolean Difference Calculus over up to N_satis keys that
//     satisfy the recorded DIPs; bits with E_i > E_lambda also stay
//     unspecified (eq. 4);
//   - instance duplication: when a distinguishing input repeats, the
//     SAT instance forks, specifying the riskiest unspecified bit both
//     ways (eq. 5), bounded by N_inst live instances;
//   - force-proceed: at the instance cap, the least-risky unspecified
//     bit (min E_i) is rounded in (eq. 6);
//   - key evaluation: every returned key is scored with the figure of
//     merit FM (eq. 7) against fresh oracle measurements; HD (eq. 8)
//     reports closeness of statistical behaviour.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"statsat/internal/circuit"
	"statsat/internal/cnf"
	"statsat/internal/engine"
	"statsat/internal/errprop"
	"statsat/internal/metrics"
	"statsat/internal/oracle"
	"statsat/internal/sat"
	"statsat/internal/trace"
)

// Options configures a StatSAT run. Zero values select the paper's
// defaults where one exists.
type Options struct {
	// Ns is the number of oracle samples per distinguishing input
	// (paper: 500).
	Ns int
	// NSatis is the number of satisfying keys averaged for the BER
	// estimate (paper: 100).
	NSatis int
	// NEval is the number of random evaluation inputs for FM/HD
	// (paper: 2000).
	NEval int
	// EvalNs is the number of samples per evaluation input; defaults
	// to Ns.
	EvalNs int
	// NInst is the maximum number of simultaneous SAT instances
	// (paper: swept in powers of two).
	NInst int
	// ULambda is the uncertainty threshold (paper: 0.25).
	ULambda float64
	// ELambda is the estimated-BER threshold (paper: 0.30).
	ELambda float64
	// EpsG is the gate error probability the attacker uses for BER
	// estimation — either known (§V assumption) or estimated (§V-E,
	// EstimateGateError).
	EpsG float64
	// MaxTotalIter bounds the summed iterations across instances
	// (safety net; 0 = 20000).
	MaxTotalIter int
	// Seed drives all attack-side randomness (key evaluation inputs,
	// simulated unlocked-circuit noise).
	Seed int64
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...interface{})
	// Tracer, if set, receives structured trace events for every
	// iteration, DIP, gating decision, fork, force-proceed and key —
	// the schema is documented in docs/OBSERVABILITY.md. The key-scoring
	// workers emit concurrently, so a Tracer must tolerate concurrent
	// Emit calls. Tracing an attack changes nothing about its behaviour
	// or results.
	Tracer trace.Tracer
	// Checkpoint, if set, receives a progress checkpoint after every
	// engine Step of every instance (the durable-resume boundary; see
	// docs/ARCHITECTURE.md "Checkpoint contract"). Like Tracer, a
	// checkpoint sink changes nothing about behaviour or results.
	Checkpoint engine.CheckpointSink
}

func (o *Options) setDefaults() {
	if o.Ns <= 0 {
		o.Ns = 500
	}
	if o.NSatis <= 0 {
		o.NSatis = 100
	}
	if o.NEval <= 0 {
		o.NEval = 2000
	}
	if o.EvalNs <= 0 {
		o.EvalNs = o.Ns
	}
	if o.NInst <= 0 {
		o.NInst = 1
	}
	if o.ULambda <= 0 {
		o.ULambda = 0.25
	}
	if o.ELambda <= 0 {
		o.ELambda = 0.30
	}
	if o.MaxTotalIter <= 0 {
		o.MaxTotalIter = 20000
	}
}

// KeyReport is one recovered key with its evaluation scores.
type KeyReport struct {
	Key        []bool
	FM         float64
	HD         float64
	Iterations int // SAT iterations of the instance that produced it
	Instance   int // instance ID
}

// Result is the outcome of a StatSAT attack.
type Result struct {
	// Keys holds every key returned by a finished instance (|K| in
	// Table II), best (minimum FM) first.
	Keys []KeyReport
	// Best points at Keys[0] when any key was found.
	Best *KeyReport
	// Instances is the peak number of simultaneously live instances.
	Instances int
	// InstancesCreated counts every instance ever forked (incl. root).
	InstancesCreated int
	// Forks and ForceProceeds count eq. 5 / eq. 6 events.
	Forks         int
	ForceProceeds int
	// DeadInstances counts instances that went UNSAT.
	DeadInstances int
	// TotalIterations sums SAT iterations over all instances.
	TotalIterations int
	// OracleQueries counts chip queries during the attack phase.
	OracleQueries int64
	// EvalQueries counts chip queries during key evaluation.
	EvalQueries int64
	// AttackDuration is T_attack (key finding only, paper Fig. 5).
	AttackDuration time.Duration
	// EvalDuration is the total evaluation time; EvalPerKey is the
	// per-key share (T_eval, paper Fig. 5).
	EvalDuration time.Duration
	EvalPerKey   time.Duration
	// Truncated is set when MaxTotalIter stopped running instances.
	Truncated bool
	// InstanceStats records the full fork tree: one entry per instance
	// ever created, in creation order.
	InstanceStats []InstanceStat
}

// InstanceStat summarises one SAT instance's life.
type InstanceStat struct {
	ID         int
	Parent     int // -1 for the root
	Iterations int
	DIPs       int
	// Outcome: "finished", "dead", or "running" (budget-truncated).
	Outcome  string
	KeyFound bool
}

// ErrNoInstances is returned when every instance died without
// producing a key (the attack failed outright).
var ErrNoInstances = errors.New("statsat: every SAT instance became unsatisfiable")

// ErrInterrupted matches any attack stopped by context cancellation or
// deadline expiry (via errors.Is). It always arrives alongside a
// non-nil best-effort Result; see engine.InterruptedError.
var ErrInterrupted = engine.ErrInterrupted

// dip is one distinguishing input with its oracle statistics and the
// (partially specified) output vector shared with the SAT solvers.
type dip struct {
	x     []bool
	probs []float64 // P^Y (eq. 1)
	u     []float64 // uncertainties (eq. 2)
	e     []float64 // estimated BERs (§IV-C)
	y     []int8    // -1 unspecified, 0, 1 (per instance)
	outA  []cnf.Wire
	outB  []cnf.Wire
	outs  []cnf.Wire // key-solver copy outputs
}

func (d *dip) cloneFor() *dip {
	nd := *d
	nd.y = append([]int8(nil), d.y...)
	return &nd
}

// unspecifiedInto collects the indices of unspecified bits into buf
// (reused across calls on the hot repeat path).
func (d *dip) unspecifiedInto(buf []int) []int {
	idx := buf[:0]
	for i, v := range d.y {
		if v < 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

type instState int8

const (
	running instState = iota
	finished
	dead
)

// instance is one SAT formulation (CNF formulas + recorded DIPs). The
// embedded engine.Instance carries the miter (M), key solver (KS), ID
// and iteration counter the shared loop operates on; this wrapper adds
// StatSAT's fork-tree state. The *Buf fields are per-instance scratch
// for the iteration hot path (clones get fresh ones).
type instance struct {
	engine.Instance
	parent  int // id of the instance this one forked from (-1 for root)
	dips    []*dip
	byInput map[string]int // input pattern -> dip index
	state   instState
	key     []bool

	// pool holds at most N_satis distinct keys, each satisfying every
	// specified bit of every recorded DIP: the §IV-C candidates that
	// survived the DIPs recorded since they were found, in the order
	// they entered. The keys themselves are never written, so a fork
	// copies only the slice.
	pool [][]bool

	keyBuf    []byte // repeated-DIP map lookups without a string alloc
	unspecBuf []int  // unspecified-bit index scratch (handleRepeat)
}

// fmtY, keyOf and appendBits delegate to the shared formatting helpers
// in internal/engine (one implementation for every attack).

func fmtY(y []int8) string { return engine.FmtY(y) }

func keyOf(x []bool) string { return engine.BitString(x) }

func appendBits(buf []byte, x []bool) []byte { return engine.AppendBits(buf, x) }

func (in *instance) clone(id int) *instance {
	n := &instance{
		Instance: engine.Instance{
			ID:         id,
			M:          in.M.Clone(),
			KS:         in.KS.Clone(),
			Iterations: in.Iterations,
		},
		parent:  in.ID,
		dips:    make([]*dip, len(in.dips)),
		byInput: make(map[string]int, len(in.byInput)),
		state:   in.state,
		pool:    append([][]bool(nil), in.pool...),
	}
	for i, d := range in.dips {
		n.dips[i] = d.cloneFor()
	}
	for k, v := range in.byInput {
		n.byInput[k] = v
	}
	return n
}

// specify pins output bit j of dip d to val in both solvers.
func (in *instance) specify(d *dip, j int, val bool) {
	var v int8
	if val {
		v = 1
	}
	d.y[j] = v
	cnf.Equal(in.M.S, d.outA[j], val)
	cnf.Equal(in.M.S, d.outB[j], val)
	cnf.Equal(in.KS.S, d.outs[j], val)
}

// respecify pins bit j of a DIP recorded earlier (a fork or a
// force-proceed, §IV-D) and drops every pool key whose output j at d.x
// is not val, so the pool keeps satisfying every specified bit.
func (run *attackRun) respecify(in *instance, d *dip, j int, val bool) {
	in.specify(d, j, val)
	po := run.locked.POs[j]
	kept := in.pool[:0]
	for _, k := range in.pool {
		run.wires = run.locked.EvalWires(d.x, k, run.wires)
		if run.wires[po] == val {
			kept = append(kept, k)
		}
	}
	in.pool = kept
}

// attackRun bundles the run state. One goroutine drives every
// instance, in the round-robin order of runSequential.
type attackRun struct {
	locked *circuit.Circuit
	orc    oracle.Oracle
	opts   Options

	insts    []*instance
	nextID   int
	res      *Result
	peakLive int
	err      error

	// eng drives the shared oracle-guided loop (internal/engine); its
	// StartQ stays 0 so StatSAT events stamp the absolute shared-chip
	// query counter.
	eng *engine.Engine

	// tr stamps and forwards trace events; nil (all methods no-op)
	// when no Tracer is configured.
	tr *trace.Emitter

	// est is built at the first DIP; the N_satis-key BER estimation of
	// every later DIP reuses its wire-value and probability scratch
	// instead of reallocating it per key.
	est *errprop.Estimator
	// outs receives the candidates' deterministic outputs at the new DI
	// from est (candidate-major), and wires is respecify's evaluation
	// scratch; both serve every instance.
	outs  []bool
	wires []bool
}

func (run *attackRun) logf(format string, args ...interface{}) {
	if run.opts.Logf == nil {
		return
	}
	run.opts.Logf(format, args...)
}

// Attack runs StatSAT against the oracle and returns every recovered
// key with FM/HD scores (best first). The caller decides "correctness"
// externally (e.g. metrics.KeysEquivalent against ground truth).
//
// Cancelling ctx (or letting its deadline expire) stops the attack at
// the next iteration boundary — or mid-solve, via the SAT solver's
// amortized interrupt check — and returns an error matching
// ErrInterrupted together with a non-nil best-effort Result: full
// instance statistics, any keys produced by already-finished instances
// (unscored; the evaluation phase is skipped) and, failing that, a key
// candidate extracted from the most advanced live instance.
func Attack(ctx context.Context, locked *circuit.Circuit, orc oracle.Oracle, opts Options) (*Result, error) {
	opts.setDefaults()
	if locked.NumPIs() != orc.NumInputs() || locked.NumPOs() != orc.NumOutputs() {
		return nil, fmt.Errorf("statsat: netlist/oracle interface mismatch (%d/%d in, %d/%d out)",
			locked.NumPIs(), orc.NumInputs(), locked.NumPOs(), orc.NumOutputs())
	}
	if locked.NumKeys() == 0 {
		return nil, fmt.Errorf("statsat: circuit %q has no key inputs", locked.Name)
	}

	run := &attackRun{locked: locked, orc: orc, opts: opts, res: &Result{}}
	run.tr = trace.NewEmitter(opts.Tracer)
	run.eng = &engine.Engine{Locked: locked, Orc: orc, Tr: run.tr, Ckpt: opts.Checkpoint}
	run.eng.EmitStart("statsat", &trace.OptionsInfo{
		Ns: opts.Ns, NSatis: opts.NSatis, NEval: opts.NEval, EvalNs: opts.EvalNs,
		NInst: opts.NInst, ULambda: opts.ULambda, ELambda: opts.ELambda,
		EpsG: opts.EpsG, MaxIter: opts.MaxTotalIter,
	})
	startQ := run.orc.Queries()
	start := time.Now()

	root, err := run.newRootInstance()
	if err != nil {
		return nil, err
	}
	run.insts = []*instance{root}
	run.res.InstancesCreated = 1
	run.peakLive = 1

	run.runSequential(ctx)
	var interrupted *engine.InterruptedError
	if run.err != nil && !errors.As(run.err, &interrupted) {
		return nil, run.err
	}
	run.res.Instances = run.peakLive
	if interrupted == nil && run.anyRunning() && !run.res.Truncated {
		run.res.Truncated = true
	}
	if run.res.Truncated {
		run.logf("statsat: iteration budget exhausted with instances still running")
	}
	run.res.AttackDuration = time.Since(start)
	run.res.OracleQueries = run.orc.Queries() - startQ

	for _, in := range run.insts {
		st := InstanceStat{
			ID:         in.ID,
			Parent:     in.parent,
			Iterations: in.Iterations,
			DIPs:       len(in.dips),
			KeyFound:   in.key != nil,
		}
		switch in.state {
		case finished:
			st.Outcome = "finished"
		case dead:
			st.Outcome = "dead"
		default:
			st.Outcome = "running"
		}
		run.res.InstanceStats = append(run.res.InstanceStats, st)
	}

	// Collect keys.
	var keys []KeyReport
	for _, in := range run.insts {
		if in.state == finished && in.key != nil {
			keys = append(keys, KeyReport{
				Key:        in.key,
				Iterations: in.Iterations,
				Instance:   in.ID,
			})
		}
	}
	if interrupted != nil {
		return run.interruptedResult(keys, interrupted)
	}
	run.emitAttackEnd(len(keys))
	if len(keys) == 0 {
		return run.res, ErrNoInstances
	}

	// Evaluation phase (eq. 7 / eq. 8).
	if run.tr.Enabled() {
		run.tr.Emit(trace.Event{
			Type:     trace.EvalStart,
			Instance: -1,
			Eval:     &trace.EvalInfo{Keys: len(keys), NEval: opts.NEval, EvalNs: opts.EvalNs},
		})
	}
	evalStart := time.Now()
	startEvalQ := run.orc.Queries()
	run.evaluateKeys(ctx, keys)
	run.res.EvalDuration = time.Since(evalStart)
	run.res.EvalQueries = run.orc.Queries() - startEvalQ
	run.res.EvalPerKey = run.res.EvalDuration / time.Duration(len(keys))
	if run.tr.Enabled() {
		run.tr.Emit(trace.Event{
			Type:     trace.EvalEnd,
			Instance: -1,
			Score:    &trace.ScoreInfo{FM: run.res.Best.FM, HD: run.res.Best.HD},
			Eval: &trace.EvalInfo{
				Keys:          len(keys),
				DurationNs:    run.res.EvalDuration.Nanoseconds(),
				OracleQueries: run.res.EvalQueries,
			},
		})
	}
	// A cancellation landing during evaluation leaves the attack-phase
	// result intact but the scores best-effort; report it.
	if err := ctx.Err(); err != nil {
		run.eng.EmitInterrupted(err, run.res.TotalIterations)
		return run.res, &engine.InterruptedError{Cause: err, Instance: -1, Iterations: run.res.TotalIterations}
	}
	return run.res, nil
}

// emitAttackEnd closes the attack phase of the trace with its totals.
func (run *attackRun) emitAttackEnd(keys int) {
	if !run.tr.Enabled() {
		return
	}
	run.tr.Emit(trace.Event{
		Type:     trace.AttackEnd,
		Instance: -1,
		Totals: &trace.TotalsInfo{
			Keys:             keys,
			Iterations:       run.res.TotalIterations,
			InstancesCreated: run.res.InstancesCreated,
			PeakLive:         run.res.Instances,
			Forks:            run.res.Forks,
			ForceProceeds:    run.res.ForceProceeds,
			DeadInstances:    run.res.DeadInstances,
			OracleQueries:    run.res.OracleQueries,
			Truncated:        run.res.Truncated,
			DurationNs:       run.res.AttackDuration.Nanoseconds(),
		},
	})
}

// interruptedResult finalises a cancelled run: when no instance had
// finished yet, a best-effort key candidate is extracted from the live
// instances' accumulated DIP constraints (unscored, like every
// interrupted key — the evaluation phase needs oracle access the
// deadline no longer affords). Instances are tried most-advanced
// first; an instance whose solver has gone UNSAT under noisy
// constraints simply yields nothing and the next one is consulted.
// The trace closes with an interrupted marker followed by the partial
// totals. The error reports the run's total iterations, as the trace
// and the Result do, not the count of the instance that saw the
// interrupt (which includes the iterations it inherited at its fork).
func (run *attackRun) interruptedResult(keys []KeyReport, ie *engine.InterruptedError) (*Result, error) {
	ie.Iterations = run.res.TotalIterations
	if len(keys) == 0 {
		live := make([]*instance, 0, len(run.insts))
		for _, in := range run.insts {
			if in.state == running {
				live = append(live, in)
			}
		}
		sort.Slice(live, func(i, j int) bool { return live[i].Iterations > live[j].Iterations })
		for _, in := range live {
			if key := engine.BestEffortKey(in.KS); key != nil {
				keys = append(keys, KeyReport{Key: key, Iterations: in.Iterations, Instance: in.ID})
				break
			}
		}
	}
	run.res.Keys = keys
	if len(keys) > 0 {
		run.res.Best = &run.res.Keys[0]
	}
	run.eng.EmitInterrupted(ie.Cause, run.res.TotalIterations)
	run.emitAttackEnd(len(keys))
	run.logf("statsat: interrupted after %d iterations (%v); result is best-effort",
		run.res.TotalIterations, ie.Cause)
	return run.res, run.err
}

// runSequential is the deterministic round-robin scheduler. It stops
// at the first error and leaves it in run.err.
func (run *attackRun) runSequential(ctx context.Context) {
	for {
		progressed := false
		for i := 0; i < len(run.insts); i++ {
			in := run.insts[i]
			if in.state != running {
				continue
			}
			if err := ctx.Err(); err != nil {
				run.err = run.interrupted(in, err)
				return
			}
			if !run.takeIteration() {
				run.res.Truncated = true
				return
			}
			if err := run.step(ctx, in); err != nil {
				run.err = err
				return
			}
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// interrupted wraps a context error with the observing instance;
// interruptedResult stamps the run's iteration total.
func (run *attackRun) interrupted(in *instance, err error) error {
	return &engine.InterruptedError{Cause: err, Instance: in.ID}
}

// takeIteration reserves one scheduler step from the global budget.
func (run *attackRun) takeIteration() bool {
	if run.res.TotalIterations >= run.opts.MaxTotalIter {
		return false
	}
	run.res.TotalIterations++
	return true
}

// setState transitions an instance and keeps the dead-instance counter
// consistent. Death is traced here so every path that kills an
// instance emits exactly one event.
func (run *attackRun) setState(in *instance, st instState) {
	if in.state == st {
		return
	}
	in.state = st
	if st != dead {
		return
	}
	run.res.DeadInstances++
	if run.tr.Enabled() {
		run.tr.Emit(trace.Event{
			Type: trace.InstanceDead, Instance: in.ID,
			Key: &trace.KeyInfo{Iterations: in.Iterations, DIPs: len(in.dips)},
		})
	}
}

func (run *attackRun) liveCount() int {
	n := 0
	for _, in := range run.insts {
		if in.state != dead {
			n++
		}
	}
	return n
}

func (run *attackRun) anyRunning() bool {
	for _, in := range run.insts {
		if in.state == running {
			return true
		}
	}
	return false
}

func (run *attackRun) newRootInstance() (*instance, error) {
	ei, err := run.eng.NewInstance(0)
	if err != nil {
		return nil, err
	}
	return &instance{
		Instance: *ei,
		parent:   -1,
		byInput:  map[string]int{},
	}, nil
}

// step performs one SAT iteration for the instance through the shared
// engine loop. Convergence and scheduling are read back from in.state,
// so the engine's done flag is redundant here.
func (run *attackRun) step(ctx context.Context, in *instance) error {
	_, err := run.eng.Step(ctx, &in.Instance, &instStrategy{run: run, in: in})
	return err
}

// instStrategy adapts one StatSAT instance to the engine's Strategy:
// Respond implements the §IV DIP handling (repeat detection, gated
// recording), Converged the key extraction.
type instStrategy struct {
	run *attackRun
	in  *instance
}

func (s *instStrategy) Respond(ctx context.Context, _ *engine.Instance, x []bool) (string, bool, error) {
	run, in := s.run, s.in
	in.keyBuf = appendBits(in.keyBuf[:0], x)
	if idx, ok := in.byInput[string(in.keyBuf)]; ok {
		// Repeated DI (§IV-D): the unspecified bits starve the solver.
		if err := run.handleRepeat(in, in.dips[idx]); err != nil {
			return "", false, err
		}
		return "repeat", false, nil
	}
	if err := run.recordNewDIP(ctx, in, x); err != nil {
		return "", false, err
	}
	// recordNewDIP kills the instance when key enumeration comes up
	// empty.
	if in.state == dead {
		return "dead", true, nil
	}
	return "dip", false, nil
}

func (s *instStrategy) Converged(ctx context.Context, _ *engine.Instance) error {
	return s.run.finish(ctx, s.in)
}

// finish extracts the instance's key (or marks it dead). A context
// interrupt during the extraction solve leaves the instance running
// and surfaces as an InterruptedError instead.
func (run *attackRun) finish(ctx context.Context, in *instance) error {
	switch in.KS.S.SolveCtx(ctx) {
	case sat.Sat:
		in.key = in.KS.Key()
		run.setState(in, finished)
		if run.tr.Enabled() {
			run.tr.Emit(trace.Event{
				Type: trace.KeyAccepted, Instance: in.ID,
				Key: &trace.KeyInfo{Key: keyOf(in.key), Iterations: in.Iterations, DIPs: len(in.dips)},
			})
		}
		run.logf("statsat: instance %d finished after %d iterations", in.ID, in.Iterations)
		return nil
	case sat.Unknown:
		if err := ctx.Err(); err != nil {
			return run.interrupted(in, err)
		}
	}
	run.setState(in, dead)
	run.logf("statsat: instance %d UNSAT (dead) after %d iterations", in.ID, in.Iterations)
	if run.opts.Logf != nil {
		// Diagnostic cross-check: rebuild the key constraints from the
		// recorded DIPs in a fresh solver and compare.
		fresh := cnf.NewKeySolver(in.KS.C)
		for _, d := range in.dips {
			outs, err := fresh.AddDIPCopy(d.x)
			if err != nil {
				run.logf("statsat: rebuild failed: %v", err)
				return nil
			}
			for i, v := range d.y {
				if v >= 0 {
					cnf.Equal(fresh.S, outs[i], v == 1)
				}
			}
		}
		run.logf("statsat: DIAG instance %d fresh-rebuild solve=%v (incremental said UNSAT)",
			in.ID, fresh.S.Solve())
	}
	return nil
}

// recordNewDIP queries the oracle, estimates BERs, translates the
// signal probabilities into a partially-specified output vector
// (eq. 4) and installs the DIP constraints. Context checks follow the
// two expensive stages (oracle sampling, key enumeration) so a
// cancelled run never mistakes their truncated output for real data —
// in particular an interrupted enumeration must not kill the instance.
//
// The N_satis keys §IV-C averages over are the instance's pool, which
// satisfies every recorded DIP, topped up from the key solver with new
// keys when the pool is short. Once eq. 4 has specified the new DIP's
// bits, the candidates that disagree with one of them leave, judged by
// the outputs the BER estimate computed anyway; the rest are the pool
// for the next DIP.
func (run *attackRun) recordNewDIP(ctx context.Context, in *instance, x []bool) error {
	opts := &run.opts
	probs := oracle.SignalProbs(ctx, run.orc, x, opts.Ns)
	if err := ctx.Err(); err != nil {
		return run.interrupted(in, err)
	}
	u := oracle.Uncertainties(probs)

	// Satisfying keys of the recorded DIPs → averaged BER estimate.
	pooled := len(in.pool)
	cand := in.pool
	if short := opts.NSatis - pooled; short > 0 {
		fresh := in.KS.EnumerateKeys(ctx, short, in.pool)
		if err := ctx.Err(); err != nil {
			return run.interrupted(in, err)
		}
		cand = append(cand, fresh...)
	}
	if len(cand) == 0 {
		run.setState(in, dead)
		return nil
	}
	if run.est == nil {
		run.est = errprop.NewEstimator(run.locked)
	}
	n := len(cand) * run.locked.NumPOs()
	if cap(run.outs) < n {
		run.outs = make([]bool, n)
	}
	outs := run.outs[:n]
	e, err := run.est.AverageOutputBERs(x, cand, opts.EpsG, outs)
	if err != nil {
		return fmt.Errorf("statsat: BER estimation: %w", err)
	}

	d := &dip{x: append([]bool(nil), x...), probs: probs, u: u, e: e, y: make([]int8, len(probs))}
	for i := range d.y {
		d.y[i] = -1
	}
	d.outA, d.outB, err = in.M.AddDIPCopies(x)
	if err != nil {
		return err
	}
	d.outs, err = in.KS.AddDIPCopy(x)
	if err != nil {
		return err
	}
	in.dips = append(in.dips, d)
	dipIdx := len(in.dips) - 1
	in.byInput[keyOf(x)] = dipIdx

	// eq. 4: specify bits that are both certain and low-estimated-BER;
	// the rest stay unspecified, partitioned by which threshold
	// withheld them (eq. 3's U_lambda first, then eq. 4's E_lambda).
	// The index slices exist only for the BitsGated trace event, so
	// untraced runs skip building them on this hot path.
	traced := run.tr.Enabled()
	specified := 0
	var specIdx, gatedU, gatedE []int
	for i := range probs {
		switch {
		case u[i] > opts.ULambda:
			if traced {
				gatedU = append(gatedU, i)
			}
		case e[i] > opts.ELambda:
			if traced {
				gatedE = append(gatedE, i)
			}
		default:
			in.specify(d, i, probs[i] >= 0.5)
			specified++
			if traced {
				specIdx = append(specIdx, i)
			}
		}
	}
	in.pool = keepAgreeing(cand, outs, d.y)
	if traced {
		run.eng.EmitDIP(&in.Instance, in.Iterations, &trace.DIPInfo{
			Index: dipIdx, X: keyOf(x), Y: fmtY(d.y),
			Outputs: len(probs), Specified: specified, Candidates: len(cand), Pooled: pooled,
		})
		run.tr.Emit(trace.Event{
			Type: trace.BitsGated, Instance: in.ID, Iter: in.Iterations,
			Gating: &trace.GatingInfo{DIP: dipIdx, Specified: specIdx, GatedU: gatedU, GatedE: gatedE},
		})
	}
	if run.opts.Logf != nil {
		run.logf("statsat: instance %d DIP %d: x=%s y=%s (%d/%d bits specified, %d candidate keys, %d from the pool)",
			in.ID, len(in.dips), keyOf(x), fmtY(d.y), specified, len(probs), len(cand), pooled)
	}
	return nil
}

// keepAgreeing compacts cand in place to the keys whose outputs (row i
// of outs holds key i's) agree with every specified bit of y.
func keepAgreeing(cand [][]bool, outs []bool, y []int8) [][]bool {
	npo := len(y)
	kept := cand[:0]
	for i, k := range cand {
		row := outs[i*npo : (i+1)*npo]
		agree := true
		for j, v := range y {
			if v >= 0 && row[j] != (v == 1) {
				agree = false
				break
			}
		}
		if agree {
			kept = append(kept, k)
		}
	}
	return kept
}

// handleRepeat implements §IV-D: duplicate when capacity allows
// (eq. 5), otherwise force-proceed (eq. 6).
func (run *attackRun) handleRepeat(in *instance, d *dip) error {
	in.unspecBuf = d.unspecifiedInto(in.unspecBuf)
	unspec := in.unspecBuf
	if len(unspec) == 0 {
		// Should be impossible: fully specified DIPs exclude their
		// input from the miter. Defensive: treat as dead.
		run.setState(in, dead)
		return nil
	}
	if run.liveCount() < run.opts.NInst {
		run.nextID++
		child := in.clone(run.nextID)
		run.insts = append(run.insts, child)
		run.res.InstancesCreated++
		run.res.Forks++
		if live := run.liveCount(); live > run.peakLive {
			run.peakLive = live
		}
		// eq. 5: pick j_dup = argmax U if that max exceeds U_lambda,
		// else argmax E.
		j := argmaxAt(d.u, unspec)
		if d.u[j] <= run.opts.ULambda {
			j = argmaxAt(d.e, unspec)
		}
		v := d.probs[j] >= 0.5
		run.respecify(in, d, j, v)
		childDip := child.dips[in.dipIndex(d)]
		run.respecify(child, childDip, j, !v)
		if run.tr.Enabled() {
			run.tr.Emit(trace.Event{
				Type: trace.Fork, Instance: in.ID, Iter: in.Iterations,
				Fork: &trace.ForkInfo{Child: child.ID, Bit: j, U: d.u[j], E: d.e[j], Value: v},
			})
		}
		run.logf("statsat: instance %d forked -> %d on bit %d (U=%.3f E=%.3f)",
			in.ID, child.ID, j, d.u[j], d.e[j])
		return nil
	}
	// eq. 6: force-proceed on the least-risky unspecified bit.
	run.res.ForceProceeds++
	j := argminAt(d.e, unspec)
	v := d.probs[j] >= 0.5
	run.respecify(in, d, j, v)
	if run.tr.Enabled() {
		run.tr.Emit(trace.Event{
			Type: trace.ForceProceed, Instance: in.ID, Iter: in.Iterations,
			Fork: &trace.ForkInfo{Bit: j, U: d.u[j], E: d.e[j], Value: v},
		})
	}
	run.logf("statsat: instance %d force-proceeds on bit %d (E=%.3f)", in.ID, j, d.e[j])
	return nil
}

func (in *instance) dipIndex(d *dip) int {
	return in.byInput[keyOf(d.x)]
}

func argmaxAt(vals []float64, idx []int) int {
	best := idx[0]
	for _, i := range idx[1:] {
		if vals[i] > vals[best] {
			best = i
		}
	}
	return best
}

func argminAt(vals []float64, idx []int) int {
	best := idx[0]
	for _, i := range idx[1:] {
		if vals[i] < vals[best] {
			best = i
		}
	}
	return best
}

// evaluateKeys scores every key with FM/HD against fresh oracle
// measurements (eq. 7-8) and sorts best (min FM) first. The oracle is
// sampled once; the per-key simulations are independent and run
// concurrently (each with its own simulated chip and noise stream, so
// results are deterministic regardless of scheduling).
func (run *attackRun) evaluateKeys(ctx context.Context, keys []KeyReport) {
	opts := &run.opts
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x5eed))
	inputs := metrics.RandomInputSet(run.locked, opts.NEval, rng)
	oracleProbs := metrics.SignalProbMatrix(ctx, run.orc, inputs, opts.EvalNs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range keys {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			sim := oracle.NewProbabilistic(run.locked, keys[i].Key, opts.EpsG, opts.Seed+int64(i)*7919)
			keyProbs := metrics.SignalProbMatrix(ctx, sim, inputs, opts.EvalNs)
			keys[i].FM = metrics.FM(oracleProbs, keyProbs)
			keys[i].HD = metrics.HD(oracleProbs, keyProbs)
			if run.tr.Enabled() {
				run.tr.Emit(trace.Event{
					Type: trace.KeyScored, Instance: keys[i].Instance,
					Key:   &trace.KeyInfo{Key: keyOf(keys[i].Key)},
					Score: &trace.ScoreInfo{FM: keys[i].FM, HD: keys[i].HD},
				})
			}
		}(i)
	}
	wg.Wait()
	// Selection sort by FM (N_inst keys at most; simplicity wins).
	for i := 0; i < len(keys); i++ {
		min := i
		for j := i + 1; j < len(keys); j++ {
			if keys[j].FM < keys[min].FM {
				min = j
			}
		}
		keys[i], keys[min] = keys[min], keys[i]
	}
	run.res.Keys = keys
	run.res.Best = &run.res.Keys[0]
}

// EstimateOptions configures the §V-E gate-error estimator.
type EstimateOptions struct {
	// NProbe random inputs are compared (default 20).
	NProbe int
	// Ns oracle/simulation samples per input (default 200).
	Ns int
	// NKeys random keys are averaged on the simulation side (default 5).
	NKeys int
	// Grid step factor for eps' (default 1.25; grid starts at 1e-4 and
	// is capped at 0.25).
	Step float64
	// Tolerance for "comparable" uncertainties: |U_sim - U_oracle| <=
	// max(AbsTol, RelTol*U_oracle). Defaults 0.02 / 0.25.
	AbsTol, RelTol float64
	Seed           int64
}

func (o *EstimateOptions) setDefaults() {
	if o.NProbe <= 0 {
		o.NProbe = 20
	}
	if o.Ns <= 0 {
		o.Ns = 200
	}
	if o.NKeys <= 0 {
		o.NKeys = 5
	}
	if o.Step <= 1 {
		o.Step = 1.25
	}
	if o.AbsTol <= 0 {
		o.AbsTol = 0.02
	}
	if o.RelTol <= 0 {
		o.RelTol = 0.25
	}
}

// EstimateGateError implements §V-E: the attacker, not knowing eps_g,
// sweeps a guess eps' upward, simulating the locked netlist with
// random keys, until at least half of the observed output
// uncertainties become comparable with the oracle's. Like in the
// paper, the estimate tends to undershoot the true eps_g (wrong keys
// add functional, not noise-induced, disagreement that the comparison
// charges against the uncertainty match).
//
// Cancelling ctx stops the grid sweep early and returns the best
// matching eps' found so far (best-effort, never blocking).
func EstimateGateError(ctx context.Context, locked *circuit.Circuit, orc oracle.Oracle, opts EstimateOptions) float64 {
	opts.setDefaults()
	rng := rand.New(rand.NewSource(opts.Seed ^ 0x9e3779b9))
	inputs := metrics.RandomInputSet(locked, opts.NProbe, rng)
	var probsBuf []float64 // reused by the oracle side and the whole grid sweep
	oracleU := make([][]float64, len(inputs))
	for j, x := range inputs {
		probsBuf = oracle.SignalProbsInto(ctx, orc, x, opts.Ns, probsBuf)
		oracleU[j] = oracle.Uncertainties(probsBuf)
	}
	randKeys := make([][]bool, opts.NKeys)
	for i := range randKeys {
		randKeys[i] = locked.RandomKey(rng)
	}

	best, bestFrac := 1e-4, -1.0
	simU := make([]float64, locked.NumPOs())
	// Probe j's simulation under random key ki draws the stream of seed
	// opts.Seed + 131·ki + j at every grid eps. Each stream is seeded
	// once, and one simulated chip per key, built once, is reset to it.
	starts := make([]*circuit.NoiseSource, len(inputs)*len(randKeys))
	for j := range inputs {
		for ki := range randKeys {
			starts[j*len(randKeys)+ki] = circuit.NewNoiseSource(opts.Seed + int64(ki)*131 + int64(j))
		}
	}
	sims := make([]*oracle.Probabilistic, len(randKeys))
	for ki, k := range randKeys {
		sims[ki] = oracle.NewProbabilistic(locked, k, 0, 0)
	}
	for eps := 1e-4; eps <= 0.25; eps *= opts.Step {
		if ctx.Err() != nil {
			return best
		}
		match, total := 0, 0
		for j, x := range inputs {
			// Average simulated uncertainty over the random keys.
			for i := range simU {
				simU[i] = 0
			}
			for ki, sim := range sims {
				sim.Reset(eps, starts[j*len(randKeys)+ki])
				probsBuf = oracle.SignalProbsInto(ctx, sim, x, opts.Ns, probsBuf)
				u := oracle.UncertaintiesInto(probsBuf, probsBuf)
				for i := range u {
					simU[i] += u[i]
				}
			}
			for i := range simU {
				simU[i] /= float64(opts.NKeys)
				tol := opts.AbsTol
				if r := opts.RelTol * oracleU[j][i]; r > tol {
					tol = r
				}
				if math.Abs(simU[i]-oracleU[j][i]) <= tol {
					match++
				}
				total++
			}
		}
		frac := 0.0
		if total > 0 {
			frac = float64(match) / float64(total)
		}
		if frac >= 0.5 {
			return eps
		}
		if frac > bestFrac {
			best, bestFrac = eps, frac
		}
	}
	// The stopping rule never triggered: fall back to the best-matching
	// grid point instead of the grid maximum.
	return best
}
