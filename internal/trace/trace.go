// Package trace is the attack observability layer: a pluggable Tracer
// receives typed, timestamped events from the attack engines
// (internal/core, internal/attack) so that run-time behaviour — DI
// discovery, uncertainty/BER gating, instance forking, force-proceed,
// solver search effort, oracle query spend — is recordable and
// machine-readable instead of being visible only through final Result
// fields.
//
// The event schema is a stable, documented contract: every event type,
// field and unit is specified in docs/OBSERVABILITY.md. Changes to the
// schema must update that document.
//
// Emission is race-safe: StatSAT's key-scoring workers emit from
// concurrent goroutines; the Emitter stamps a process-wide-unique
// sequence number and a monotonic timestamp atomically, and every sink
// shipped here serialises its writes internally.
package trace

import (
	"sync"
	"time"

	"statsat/internal/sat"
)

// EventType names one kind of trace event. The string values are the
// wire format (the "type" field of a JSON-lines trace).
type EventType string

// Event types, in the approximate order they appear in a trace. See
// docs/OBSERVABILITY.md for the exact payload of each.
const (
	// AttackStart opens a trace: circuit interface + attack options.
	AttackStart EventType = "attack_start"
	// IterStart marks one SAT iteration attempt (pre-solve snapshot).
	IterStart EventType = "iteration_start"
	// IterEnd closes the iteration with its outcome (post snapshot).
	IterEnd EventType = "iteration_end"
	// DIPFound records a new distinguishing input with its gating
	// summary.
	DIPFound EventType = "dip_found"
	// BitsGated details which output bits were withheld by U_lambda vs
	// E_lambda for the DIP just found.
	BitsGated EventType = "bits_gated"
	// Fork records an eq. 5 instance duplication.
	Fork EventType = "fork"
	// ForceProceed records an eq. 6 forced bit specification.
	ForceProceed EventType = "force_proceed"
	// InstanceDead records an instance whose formula went UNSAT (or
	// that ran out of candidate keys).
	InstanceDead EventType = "instance_dead"
	// KeyAccepted records an instance finishing with a key.
	KeyAccepted EventType = "key_accepted"
	// Interrupted records a cancellation or deadline expiry: the run
	// stopped early and the results that follow are best-effort.
	Interrupted EventType = "interrupted"
	// AttackEnd closes the key-finding phase with run totals.
	AttackEnd EventType = "attack_end"
	// EvalStart opens the key-evaluation phase (eq. 7-8).
	EvalStart EventType = "eval_start"
	// KeyScored reports one key's FM/HD scores.
	KeyScored EventType = "key_scored"
	// EvalEnd closes the evaluation phase with the best key's scores.
	EvalEnd EventType = "eval_end"
)

// Event is one trace record. Only the envelope fields (Seq, TNs, Type,
// Instance) are always present; payload pointers are populated per
// event type as documented in docs/OBSERVABILITY.md.
type Event struct {
	// Seq is a per-trace sequence number, strictly increasing from 1
	// in emission order (total order even across emitting goroutines).
	Seq int64 `json:"seq"`
	// TNs is the monotonic time of emission in nanoseconds since the
	// trace began (emitter creation, just before attack_start).
	TNs int64 `json:"t_ns"`
	// Type discriminates the payload.
	Type EventType `json:"type"`
	// Attack names the engine ("statsat", "psat", "sat"); set on
	// attack_start only.
	Attack string `json:"attack,omitempty"`
	// Instance is the SAT-instance ID the event belongs to, or -1 for
	// run-scoped events (attack_start/end, eval_start/end).
	Instance int `json:"instance"`
	// Iter is the instance's 1-based iteration attempt counter; 0
	// (omitted) when not iteration-scoped.
	Iter int `json:"iter,omitempty"`
	// Status is the iteration outcome on iteration_end:
	// "dip" | "repeat" | "unsat" | "dead".
	Status string `json:"status,omitempty"`
	// OracleQueries is the cumulative attack-phase chip query count at
	// emission time (shared across instances).
	OracleQueries int64 `json:"oracle_queries,omitempty"`

	Circuit   *CircuitInfo   `json:"circuit,omitempty"`
	Opts      *OptionsInfo   `json:"opts,omitempty"`
	Solver    *SolverStats   `json:"solver,omitempty"`
	DIP       *DIPInfo       `json:"dip,omitempty"`
	Gating    *GatingInfo    `json:"gating,omitempty"`
	Fork      *ForkInfo      `json:"fork,omitempty"`
	Key       *KeyInfo       `json:"key,omitempty"`
	Score     *ScoreInfo     `json:"score,omitempty"`
	Eval      *EvalInfo      `json:"eval,omitempty"`
	Totals    *TotalsInfo    `json:"totals,omitempty"`
	Interrupt *InterruptInfo `json:"interrupt,omitempty"`
}

// CircuitInfo describes the attacked netlist's interface
// (attack_start).
type CircuitInfo struct {
	Name string `json:"name"`
	PIs  int    `json:"pis"`
	POs  int    `json:"pos"`
	Keys int    `json:"keys"`
}

// OptionsInfo echoes the attack parameters in force (attack_start).
// Zero-valued knobs that an engine does not use are omitted.
type OptionsInfo struct {
	Ns      int     `json:"ns,omitempty"`
	NSatis  int     `json:"nsatis,omitempty"`
	NEval   int     `json:"neval,omitempty"`
	EvalNs  int     `json:"eval_ns,omitempty"`
	NInst   int     `json:"ninst,omitempty"`
	ULambda float64 `json:"ulambda,omitempty"`
	ELambda float64 `json:"elambda,omitempty"`
	EpsG    float64 `json:"epsg,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
}

// SolverStats is a point-in-time snapshot of one instance's miter
// solver: formula size plus the cumulative sat.Statistics counters.
type SolverStats struct {
	Vars         int   `json:"vars"`
	Clauses      int   `json:"clauses"`
	Learnts      int   `json:"learnts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Restarts     int64 `json:"restarts"`
	LearntTotal  int64 `json:"learnt_total"`
	Removed      int64 `json:"removed"`
	Solves       int64 `json:"solves"`
}

// SolverSnapshot captures s's current counters. Call it only from the
// goroutine driving the solver (solvers are not goroutine-safe).
func SolverSnapshot(s *sat.Solver) *SolverStats {
	snap := s.Snapshot()
	return &SolverStats{
		Vars:         snap.Vars,
		Clauses:      snap.Clauses,
		Learnts:      snap.Learnts,
		Decisions:    snap.Decisions,
		Propagations: snap.Propagations,
		Conflicts:    snap.Conflicts,
		Restarts:     snap.Restarts,
		LearntTotal:  snap.Learnt,
		Removed:      snap.Removed,
		Solves:       snap.Solves,
	}
}

// DIPInfo describes a newly recorded distinguishing input (dip_found).
type DIPInfo struct {
	// Index is the 0-based DIP index within the emitting instance.
	Index int `json:"index"`
	// X is the input pattern ('0'/'1', one byte per primary input).
	X string `json:"x"`
	// Y is the partially specified output pattern ('0'/'1'/'x').
	Y string `json:"y"`
	// Outputs is the circuit's primary-output count (= len(Y)).
	Outputs int `json:"outputs"`
	// Specified counts the bits of Y pinned at recording time.
	Specified int `json:"specified"`
	// Candidates is the number of satisfying keys averaged for the BER
	// estimate (StatSAT only).
	Candidates int `json:"candidates,omitempty"`
	// Pooled counts the Candidates the instance's key pool supplied,
	// the rest being new keys from the key solver (StatSAT only).
	Pooled int `json:"pooled,omitempty"`
}

// GatingInfo details the eq. 3-4 gating decision for one DIP
// (bits_gated). The three slices partition [0, outputs).
type GatingInfo struct {
	// DIP is the 0-based DIP index the gating belongs to.
	DIP int `json:"dip"`
	// Specified lists output bit indices pinned (U <= U_lambda and
	// E <= E_lambda).
	Specified []int `json:"specified,omitempty"`
	// GatedU lists bits withheld because U > U_lambda (eq. 3).
	GatedU []int `json:"gated_u,omitempty"`
	// GatedE lists bits with acceptable uncertainty withheld because
	// E > E_lambda (eq. 4).
	GatedE []int `json:"gated_e,omitempty"`
}

// ForkInfo describes an eq. 5 duplication (fork) or an eq. 6 forced
// specification (force_proceed; Child absent).
type ForkInfo struct {
	// Child is the new instance's ID (fork only; children are never 0).
	Child int `json:"child,omitempty"`
	// Bit is the output bit index being specified.
	Bit int `json:"bit"`
	// U and E are the bit's uncertainty and estimated BER.
	U float64 `json:"u"`
	E float64 `json:"e"`
	// Value is the value the emitting instance takes (the fork child
	// takes !Value).
	Value bool `json:"value"`
}

// KeyInfo describes a recovered key (key_accepted, key_scored) or a
// finished instance without one (instance_dead).
type KeyInfo struct {
	// Key is the key bits as a '0'/'1' string (absent on
	// instance_dead, where no key exists).
	Key string `json:"key,omitempty"`
	// Iterations is the producing instance's iteration count.
	Iterations int `json:"iterations,omitempty"`
	// DIPs is the producing instance's recorded DIP count.
	DIPs int `json:"dips,omitempty"`
}

// ScoreInfo carries eq. 7-8 evaluation scores (key_scored, eval_end).
type ScoreInfo struct {
	FM float64 `json:"fm"`
	HD float64 `json:"hd"`
}

// EvalInfo describes the key-evaluation phase (eval_start, eval_end).
type EvalInfo struct {
	// Keys is the number of keys being (or just) scored.
	Keys int `json:"keys"`
	// NEval and EvalNs echo the evaluation sampling budget
	// (eval_start only).
	NEval  int `json:"neval,omitempty"`
	EvalNs int `json:"eval_ns,omitempty"`
	// DurationNs and OracleQueries report the phase's cost
	// (eval_end only).
	DurationNs    int64 `json:"duration_ns,omitempty"`
	OracleQueries int64 `json:"oracle_queries,omitempty"`
}

// TotalsInfo summarises the key-finding phase (attack_end).
type TotalsInfo struct {
	Keys             int   `json:"keys"`
	Iterations       int   `json:"iterations"`
	InstancesCreated int   `json:"instances_created"`
	PeakLive         int   `json:"peak_live"`
	Forks            int   `json:"forks"`
	ForceProceeds    int   `json:"force_proceeds"`
	DeadInstances    int   `json:"dead_instances"`
	OracleQueries    int64 `json:"oracle_queries"`
	Truncated        bool  `json:"truncated,omitempty"`
	DurationNs       int64 `json:"duration_ns"`
}

// InterruptInfo describes why a run stopped early (interrupted).
type InterruptInfo struct {
	// Cause is the context error text ("context canceled" or
	// "context deadline exceeded").
	Cause string `json:"cause"`
	// Iterations is the total iteration count completed before the
	// interrupt.
	Iterations int `json:"iterations"`
}

// Tracer receives trace events. Implementations must be safe for
// concurrent Emit calls: StatSAT's key-scoring workers emit from
// multiple goroutines.
type Tracer interface {
	Emit(ev Event)
}

// Emitter stamps events with a strictly increasing sequence number and
// a monotonic timestamp before forwarding them to a Tracer. A nil
// *Emitter is valid and drops everything, so attack engines can emit
// unconditionally.
//
// Stamping and forwarding happen under one lock, which yields the
// ordering contract consumers rely on: the sink receives events in Seq
// order (1, 2, 3, ...) with non-decreasing TNs, even when concurrent
// goroutines emit simultaneously.
type Emitter struct {
	t     Tracer
	start time.Time
	mu    sync.Mutex
	seq   int64
}

// NewEmitter wraps t; a nil t yields a nil (disabled) emitter. The
// monotonic clock starts now, so create the emitter at attack start.
func NewEmitter(t Tracer) *Emitter {
	if t == nil {
		return nil
	}
	return &Emitter{t: t, start: time.Now()}
}

// Enabled reports whether events will actually be forwarded; use it to
// skip building expensive payloads.
func (e *Emitter) Enabled() bool { return e != nil }

// Emit stamps ev's Seq and TNs and forwards it. Safe for concurrent
// use; no-op on a nil emitter.
func (e *Emitter) Emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	ev.Seq = e.seq
	ev.TNs = time.Since(e.start).Nanoseconds()
	e.t.Emit(ev)
}
