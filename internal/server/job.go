package server

import (
	"context"
	"sync"
	"time"

	"statsat"
	"statsat/internal/engine"
	"statsat/internal/trace"
)

// State is a job's lifecycle phase. Transitions are strictly forward:
// queued -> running -> one of the three terminal states, or queued ->
// cancelled when a job is cancelled (or the server drains) before a
// worker picks it up.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"      // attack completed (possibly with zero keys)
	StateCancelled State = "cancelled" // interrupted: result is best-effort partial
	StateFailed    State = "failed"    // spec passed admission but the run errored
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateCancelled || s == StateFailed
}

// Job is one admitted attack job. The immutable identity fields are
// set at admission; everything behind mu changes as the job moves
// through its lifecycle.
type Job struct {
	// ID is the server-assigned job identifier ("j000001", ...).
	ID string
	// Spec is the admitted request body.
	Spec *Spec

	// attack and circuit describe the job in its Status. mat holds what
	// only a run reads: the netlist, the true key and the chip. The
	// store retains up to MaxJobs settled jobs for their Status and
	// trace, so a job drops mat as it settles, under j.mu (or before it
	// is shared) and after its run, if any, has returned.
	attack  string
	circuit CircuitInfo
	mat     *materialized
	stream  *trace.Stream
	prog    *engine.Progress

	// ctx is the job's run context, derived from the server's base
	// context at admission; cancel interrupts it with a cause; done
	// closes when the job reaches a terminal state.
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	// sinks are the store's durability hooks (store.bind); the zero
	// value is the in-memory path. tape is the recorded oracle
	// interaction prefix a recovered job replays before going live
	// (nil for fresh jobs; see docs/SERVER.md "Persistence and
	// recovery"). Like mat, only a run reads it, and the job drops it
	// as it settles, under j.mu.
	sinks sinks
	tape  []statsat.TapeRecord

	mu       sync.Mutex
	state    State
	err      error
	outcome  *Outcome
	created  time.Time
	started  time.Time
	finished time.Time
}

// Outcome is the uniform result summary across the four attack kinds
// (the attack-specific counters are omitempty).
type Outcome struct {
	// Keys lists every recovered key, best first for StatSAT; Correct
	// is exact SAT equivalence against the oracle's ground-truth key.
	Keys []KeyReport `json:"keys,omitempty"`
	// Iterations is the total DIP-iteration count; OracleQueries (and
	// EvalQueries for StatSAT) the chip query spend.
	Iterations    int   `json:"iterations"`
	OracleQueries int64 `json:"oracle_queries"`
	EvalQueries   int64 `json:"eval_queries,omitempty"`
	// AttackNs is the key-finding wall time.
	AttackNs int64 `json:"attack_ns"`
	// StatSAT instance-tree counters.
	Instances     int  `json:"instances,omitempty"`
	Forks         int  `json:"forks,omitempty"`
	ForceProceeds int  `json:"force_proceeds,omitempty"`
	DeadInstances int  `json:"dead_instances,omitempty"`
	Truncated     bool `json:"truncated,omitempty"`
	// Failed marks the baselines' UNSAT-before-key failure mode.
	Failed bool `json:"failed,omitempty"`
	// AppSAT reconciliation summary.
	Rounds    int  `json:"rounds,omitempty"`
	EarlyExit bool `json:"early_exit,omitempty"`
	// Interrupted is set when the run was cancelled or timed out;
	// InterruptCause carries the context cause and the counters above
	// are best-effort partials (docs/ARCHITECTURE.md).
	Interrupted    bool   `json:"interrupted,omitempty"`
	InterruptCause string `json:"interrupt_cause,omitempty"`
	// TapeDiverged is set when a resumed job's replayed oracle answers
	// stopped matching its logged tape: from that interaction on it ran
	// on the live oracle, so its trajectory does not continue the
	// previous life's (docs/SERVER.md "Persistence and recovery").
	TapeDiverged bool `json:"tape_diverged,omitempty"`
}

// KeyReport is one recovered key in an Outcome.
type KeyReport struct {
	Key string `json:"key"`
	// FM and HD are the eq. 7-8 scores (StatSAT only; zero for the
	// baselines and for unscored interrupted keys).
	FM float64 `json:"fm,omitempty"`
	HD float64 `json:"hd,omitempty"`
	// Correct reports exact functional equivalence with the
	// ground-truth key on the locked netlist.
	Correct bool `json:"correct"`
	// Iterations is the producing instance's iteration count.
	Iterations int `json:"iterations,omitempty"`
	// Instance is the producing StatSAT instance's ID.
	Instance int `json:"instance,omitempty"`
}

// Status is the wire form of a job's current state (GET /v1/jobs/{id}
// and the per-entry shape of GET /v1/jobs).
type Status struct {
	ID      string      `json:"id"`
	State   State       `json:"state"`
	Attack  string      `json:"attack"`
	Circuit CircuitInfo `json:"circuit"`
	// Created/Started/Finished are RFC3339Nano server timestamps
	// (Started/Finished empty until reached).
	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	// Progress is the live counter snapshot aggregated from the job's
	// trace stream (engine.Progress); present once the job starts.
	Progress *engine.ProgressSnapshot `json:"progress,omitempty"`
	// TraceBuffered and TraceDropped describe the replay ring backing
	// GET /v1/jobs/{id}/trace.
	TraceBuffered int   `json:"trace_buffered"`
	TraceDropped  int64 `json:"trace_dropped,omitempty"`
	// Outcome is set in terminal states (partial when Interrupted).
	Outcome *Outcome `json:"outcome,omitempty"`
	// Error is the run error text ("" when none). For cancelled jobs
	// it matches the engine's InterruptedError rendering.
	Error string `json:"error,omitempty"`
}

// newJob wraps an admitted spec. The clock read is sanctioned here:
// job timestamps are presentation metadata, never experiment output
// (see the walltime note in docs/LINTING.md).
func newJob(sp *Spec, mat *materialized, traceBuf int) *Job {
	return &Job{
		Spec:    sp,
		attack:  mat.attack,
		circuit: mat.circuit,
		mat:     mat,
		stream:  trace.NewStream(traceBuf),
		prog:    &engine.Progress{},
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
}

// Status assembles the wire view of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:            j.ID,
		State:         j.state,
		Attack:        j.attack,
		Circuit:       j.circuit,
		Created:       j.created.Format(time.RFC3339Nano),
		TraceBuffered: j.stream.Len(),
		TraceDropped:  j.stream.Dropped(),
		Outcome:       j.outcome,
	}
	if !j.started.IsZero() {
		st.Started = j.started.Format(time.RFC3339Nano)
		snap := j.prog.Snapshot()
		st.Progress = &snap
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Format(time.RFC3339Nano)
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// State returns the job's current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's run error (nil while queued/running or on
// clean completion). For interrupted jobs it matches
// statsat.ErrInterrupted via errors.Is.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Outcome returns the result summary (nil until terminal; partial for
// cancelled jobs).
func (j *Job) Outcome() *Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcome
}

// Done exposes the terminal-state barrier: closed exactly once, when
// the job finishes, fails or is cancelled.
func (j *Job) Done() <-chan struct{} { return j.done }

// tryStart transitions queued -> running; a false return means the job
// was cancelled while waiting in the queue and must not run. The
// store's transition hook fires after j.mu is released — it may block
// on the write-ahead log.
func (j *Job) tryStart() bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	if j.sinks.transition != nil {
		j.sinks.transition(j, StateRunning)
	}
	return true
}

// finish moves the job to a terminal state, closes its trace stream
// (ending every live subscriber) and releases Done waiters. Repeat
// calls are ignored so a cancellation racing completion settles on
// whichever came first.
func (j *Job) finish(state State, out *Outcome, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.outcome = out
	j.err = err
	j.finished = time.Now()
	j.mat, j.tape = nil, nil
	j.mu.Unlock()
	j.settled(state)
}

// settled publishes a terminal state set under j.mu. The terminal
// record reaches the store (and, on the persistent path, stable
// storage) before Done waiters release: a client that observed
// settlement can rely on the outcome surviving a crash.
func (j *Job) settled(state State) {
	if j.sinks.transition != nil {
		j.sinks.transition(j, state)
	}
	j.stream.Close()
	close(j.done)
}

// Cancel interrupts the job with the given cause. Queued jobs settle
// immediately; running jobs stop at the engine's next interrupt check
// and publish their best-effort partial outcome. Safe to call in any
// state, any number of times.
func (j *Job) Cancel(cause error) {
	// A queued job never ran: no outcome to salvage. It settles under
	// the same lock as the check, so a worker's tryStart cannot start
	// it in between; if the worker won, the run's own termination path
	// is the one that counts.
	j.mu.Lock()
	queued := j.state == StateQueued
	if queued {
		j.state = StateCancelled
		j.err = cause
		j.finished = time.Now()
		j.mat, j.tape = nil, nil
	}
	j.mu.Unlock()
	if queued {
		j.settled(StateCancelled)
	}
	if j.cancel != nil {
		j.cancel(cause)
	}
}

// tracer is the sink chain a job's attack emits into: the replayable
// live stream plus the progress aggregate.
func (j *Job) tracer() statsat.Tracer {
	return statsat.MultiTracer(j.stream, j.prog)
}
