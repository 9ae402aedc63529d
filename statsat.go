// Package statsat is the public API of the StatSAT reproduction — a
// Boolean-Satisfiability attack on logic-locked probabilistic circuits
// (Mondal, Zuzak, Srivastava, DAC 2020).
//
// The package re-exports the building blocks a downstream user needs:
//
//   - gate-level circuits and .bench I/O (Circuit, ParseBench, ...),
//   - benchmark generation (C17, Benchmarks, RandomCircuit),
//   - logic locking (LockRLL, LockSLL, LockSFLLHD),
//   - activated-chip oracles (NewOracle, NewNoisyOracle),
//   - the StatSAT attack (Attack, Options, Result) plus the standard
//     SAT attack and the PSAT baseline,
//   - evaluation metrics (FM, HD, KeysEquivalent, MeasureBER) and the
//     §V-E gate-error estimator (EstimateGateError),
//   - attack observability (Tracer, NewJSONLTracer, TraceRecorder):
//     structured, timestamped events from inside the attack loop.
//
// Quickstart:
//
//	orig := statsat.C17()
//	locked, _ := statsat.LockRLL(orig, 4, 1)
//	orc := statsat.NewNoisyOracle(locked.Circuit, locked.Key, 0.01, 7)
//	res, _ := statsat.Attack(locked.Circuit, orc, statsat.Options{EpsG: 0.01, NInst: 4})
//	fmt.Println(res.Best.Key, res.Best.HD)
//
// # Tracing
//
// Every attack engine (Attack, StandardSATOpt, PSAT) accepts a Tracer
// that receives a typed event for each milestone of the run: iteration
// start/end with SAT-solver counters, distinguishing-input discovery,
// output bits gated by the U_lambda/E_lambda thresholds, instance
// forks and force-proceeds, key acceptance, and FM/HD scoring. Events
// carry a total-order sequence number and a monotonic timestamp. The
// FM/HD scoring workers emit concurrently, so a custom Tracer must
// tolerate concurrent Emit calls (the shipped sinks do). The wire
// format and the exact payload of every event type are documented in
// docs/OBSERVABILITY.md; tracing never changes attack behaviour or
// results.
//
// To record a run as JSON lines:
//
//	f, _ := os.Create("trace.jsonl")
//	defer f.Close()
//	opts := statsat.Options{EpsG: 0.01, NInst: 4, Tracer: statsat.NewJSONLTracer(f)}
//	res, _ := statsat.Attack(locked.Circuit, orc, opts)
//
// To inspect events in memory (e.g. in tests), use NewTraceRecorder;
// to fan one run out to several sinks, use MultiTracer. A runnable
// walk-through lives in examples/tracing.
package statsat

import (
	"context"
	"io"
	"math/rand"

	"statsat/internal/attack"
	"statsat/internal/bench"
	"statsat/internal/circuit"
	"statsat/internal/core"
	"statsat/internal/engine"
	"statsat/internal/gen"
	"statsat/internal/lock"
	"statsat/internal/metrics"
	"statsat/internal/oracle"
	"statsat/internal/trace"
	"statsat/internal/verilog"
)

// Circuit is a combinational gate-level netlist.
type Circuit = circuit.Circuit

// GateType enumerates supported gate functions.
type GateType = circuit.GateType

// Re-exported gate types for circuit construction.
const (
	Input  = circuit.Input
	Key    = circuit.Key
	Const0 = circuit.Const0
	Const1 = circuit.Const1
	Buf    = circuit.Buf
	Not    = circuit.Not
	And    = circuit.And
	Nand   = circuit.Nand
	Or     = circuit.Or
	Nor    = circuit.Nor
	Xor    = circuit.Xor
	Xnor   = circuit.Xnor
	Mux    = circuit.Mux
)

// NewCircuit returns an empty circuit with the given name.
func NewCircuit(name string) *Circuit { return circuit.New(name) }

// Simplify returns a functionally equivalent, cleaned-up copy of a
// netlist: constants propagated, identities folded, common
// subexpressions merged, dead gates swept. The I/O interface is
// preserved exactly.
func Simplify(c *Circuit) (*Circuit, error) { return circuit.Simplify(c) }

// ParseBench reads an ISCAS .bench netlist; inputs named "keyinput*"
// become key inputs.
func ParseBench(r io.Reader) (*Circuit, error) { return bench.Parse(r) }

// ParseBenchString is ParseBench over a string.
func ParseBenchString(s string) (*Circuit, error) { return bench.ParseString(s) }

// WriteBench serialises a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// FormatBench renders a circuit as a .bench string.
func FormatBench(c *Circuit) string { return bench.Format(c) }

// ParseVerilog reads a gate-level structural Verilog module (the
// ISCAS/ITC distribution format); "keyinput*" ports become key inputs.
func ParseVerilog(r io.Reader) (*Circuit, error) { return verilog.Parse(r) }

// ParseVerilogString is ParseVerilog over a string.
func ParseVerilogString(s string) (*Circuit, error) { return verilog.ParseString(s) }

// WriteVerilog serialises a circuit as a structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// FormatVerilog renders a circuit as a Verilog string.
func FormatVerilog(c *Circuit) string { return verilog.Format(c) }

// C17 returns the real ISCAS85 c17 netlist.
func C17() *Circuit { return gen.C17() }

// Benchmark describes one synthetic stand-in benchmark.
type Benchmark = gen.Benchmark

// Benchmarks lists the paper's Table I suite (plus c880).
func Benchmarks() []Benchmark { return gen.TableI }

// BenchmarkByName looks up a Table I benchmark.
func BenchmarkByName(name string) (Benchmark, bool) { return gen.ByName(name) }

// RandomCircuit generates a seeded random combinational circuit.
func RandomCircuit(name string, inputs, gates, outputs int, seed int64) *Circuit {
	return gen.Random(name, inputs, gates, outputs, seed)
}

// Locked bundles a locked netlist with its ground-truth key.
type Locked = lock.Locked

// LockRLL locks a circuit with random XOR/XNOR key gates.
func LockRLL(orig *Circuit, keyBits int, seed int64) (*Locked, error) {
	return lock.RLL(orig, keyBits, rand.New(rand.NewSource(seed)))
}

// LockSLL locks a circuit with Strong Logic Locking (interference-
// maximising key-gate placement).
func LockSLL(orig *Circuit, keyBits int, seed int64) (*Locked, error) {
	return lock.SLL(orig, keyBits, rand.New(rand.NewSource(seed)))
}

// LockSFLLHD locks a circuit with SFLL-HD^h over keyBits protected
// primary inputs.
func LockSFLLHD(orig *Circuit, keyBits, h int, seed int64) (*Locked, error) {
	return lock.SFLLHD(orig, keyBits, h, rand.New(rand.NewSource(seed)))
}

// Oracle is a black-box activated chip.
type Oracle = oracle.Oracle

// NewOracle returns a deterministic (noise-free) activated chip.
func NewOracle(c *Circuit, key []bool) Oracle { return oracle.NewDeterministic(c, key) }

// NewNoisyOracle returns a probabilistic activated chip where every
// logic gate flips its output with probability eps per evaluation.
func NewNoisyOracle(c *Circuit, key []bool, eps float64, seed int64) Oracle {
	return oracle.NewProbabilistic(c, key, eps, seed)
}

// TapeRecord is one recorded oracle interaction on a resume tape (see
// docs/SERVER.md "Persistence and recovery").
type TapeRecord = oracle.TapeRecord

// Journal is an oracle with replay-then-record semantics, built by
// NewJournalOracle. Its Diverged method reports whether a replayed
// interaction stopped matching the tape, after which it served the
// live oracle.
type Journal = oracle.Journal

// NewJournalOracle wraps a freshly built oracle with replay-then-record
// semantics: the recorded tape prefix is served back instead of fresh
// silicon queries (reproducing an interrupted trajectory exactly), new
// interactions stream to sink. Either tape or sink may be empty/nil.
func NewJournalOracle(inner Oracle, tape []TapeRecord, sink func(TapeRecord)) *Journal {
	return oracle.NewJournal(inner, tape, sink)
}

// ValidateTape sanity-checks a replayed tape against an oracle's
// pinout and counters before a resume commits to it. Every error it
// returns matches ErrBadTape (errors.Is).
func ValidateTape(tape []TapeRecord, o Oracle) error { return oracle.ValidateTape(tape, o) }

// ErrBadTape matches every ValidateTape error.
var ErrBadTape = oracle.ErrBadTape

// Checkpoint is the serializable progress marker captured at the
// engine's Step boundary; CheckpointSink receives one after every
// completed iteration (Options.Checkpoint and the baseline options'
// Checkpoint fields). See docs/ARCHITECTURE.md "Checkpoint contract".
type (
	Checkpoint     = engine.Checkpoint
	CheckpointSink = engine.CheckpointSink
)

// SignalProbs queries an oracle ns times and returns per-output
// signal probabilities (eq. 1 of the paper).
func SignalProbs(o Oracle, x []bool, ns int) []float64 {
	return oracle.SignalProbs(context.Background(), o, x, ns)
}

// SignalProbsCtx is SignalProbs with cancellation: a cancelled ctx
// stops the sampling early and the probabilities are normalised over
// the samples actually taken (best-effort).
func SignalProbsCtx(ctx context.Context, o Oracle, x []bool, ns int) []float64 {
	return oracle.SignalProbs(ctx, o, x, ns)
}

// Options configures the StatSAT attack (zero values pick the paper's
// defaults: Ns=500, NSatis=100, NEval=2000, U_lambda=0.25,
// E_lambda=0.30, NInst=1).
type Options = core.Options

// Result reports a StatSAT run: every recovered key scored by FM/HD
// (best first), instance statistics and timing.
type Result = core.Result

// KeyReport is one recovered key with its evaluation scores.
type KeyReport = core.KeyReport

// ErrNoInstances is returned when every SAT instance died without a key.
var ErrNoInstances = core.ErrNoInstances

// ErrInterrupted matches (errors.Is) any attack stopped by context
// cancellation or deadline expiry. Interrupted attacks return it
// alongside a non-nil best-effort result; see docs/ARCHITECTURE.md
// for the cancellation contract.
var ErrInterrupted = core.ErrInterrupted

// Attack runs StatSAT against the oracle.
func Attack(locked *Circuit, orc Oracle, opts Options) (*Result, error) {
	return core.Attack(context.Background(), locked, orc, opts)
}

// AttackCtx is Attack with cancellation: when ctx is cancelled or its
// deadline expires the attack stops at the next iteration boundary
// and returns its best-effort partial result together with an error
// matching ErrInterrupted.
func AttackCtx(ctx context.Context, locked *Circuit, orc Oracle, opts Options) (*Result, error) {
	return core.Attack(ctx, locked, orc, opts)
}

// EstimateOptions configures EstimateGateError.
type EstimateOptions = core.EstimateOptions

// EstimateGateError implements §V-E: the attacker estimates the
// oracle's gate error probability by uncertainty matching.
func EstimateGateError(locked *Circuit, orc Oracle, opts EstimateOptions) float64 {
	return core.EstimateGateError(context.Background(), locked, orc, opts)
}

// EstimateGateErrorCtx is EstimateGateError with cancellation: a
// cancelled ctx stops the grid sweep and returns the best estimate so
// far.
func EstimateGateErrorCtx(ctx context.Context, locked *Circuit, orc Oracle, opts EstimateOptions) float64 {
	return core.EstimateGateError(ctx, locked, orc, opts)
}

// BaselineResult reports a standard-SAT or PSAT run.
type BaselineResult = attack.Result

// PSATOptions configures the PSAT baseline.
type PSATOptions = attack.PSATOptions

// StandardSAT runs the classic SAT attack (deterministic oracles).
func StandardSAT(locked *Circuit, orc Oracle, maxIter int) (*BaselineResult, error) {
	return attack.StandardSAT(context.Background(), locked, orc, maxIter)
}

// StandardSATCtx is StandardSAT with cancellation (see AttackCtx for
// the contract).
func StandardSATCtx(ctx context.Context, locked *Circuit, orc Oracle, maxIter int) (*BaselineResult, error) {
	return attack.StandardSAT(ctx, locked, orc, maxIter)
}

// PSAT runs the probabilistic-SAT baseline of Patnaik et al.
func PSAT(locked *Circuit, orc Oracle, opts PSATOptions) (*BaselineResult, error) {
	return attack.PSAT(context.Background(), locked, orc, opts)
}

// PSATCtx is PSAT with cancellation (see AttackCtx for the contract).
func PSATCtx(ctx context.Context, locked *Circuit, orc Oracle, opts PSATOptions) (*BaselineResult, error) {
	return attack.PSAT(ctx, locked, orc, opts)
}

// SATOptions configures StandardSATOpt.
type SATOptions = attack.SATOptions

// StandardSATOpt is StandardSAT with the full option set (iteration
// bound plus tracing).
func StandardSATOpt(locked *Circuit, orc Oracle, opts SATOptions) (*BaselineResult, error) {
	return attack.StandardSATOpt(context.Background(), locked, orc, opts)
}

// StandardSATOptCtx is StandardSATOpt with cancellation (see AttackCtx
// for the contract).
func StandardSATOptCtx(ctx context.Context, locked *Circuit, orc Oracle, opts SATOptions) (*BaselineResult, error) {
	return attack.StandardSATOpt(ctx, locked, orc, opts)
}

// AppSATOptions configures the AppSAT baseline.
type AppSATOptions = attack.AppSATOptions

// AppSATResult reports an AppSAT run.
type AppSATResult = attack.AppSATResult

// AppSAT runs the approximate SAT attack (Shamsi et al.) — effective
// on deterministic oracles, inapplicable to probabilistic ones (the
// paper's footnote 2).
func AppSAT(locked *Circuit, orc Oracle, opts AppSATOptions) (*AppSATResult, error) {
	return attack.AppSAT(context.Background(), locked, orc, opts)
}

// AppSATCtx is AppSAT with cancellation (see AttackCtx for the
// contract).
func AppSATCtx(ctx context.Context, locked *Circuit, orc Oracle, opts AppSATOptions) (*AppSATResult, error) {
	return attack.AppSAT(ctx, locked, orc, opts)
}

// LockRLLDeep locks a circuit with depth-targeted random key gates —
// the defensive variant explored for the paper's future-work question
// (see internal/exp.Defense).
func LockRLLDeep(orig *Circuit, keyBits int, seed int64) (*Locked, error) {
	return lock.RLLDeep(orig, keyBits, rand.New(rand.NewSource(seed)))
}

// LockAntiSAT locks a circuit with an Anti-SAT block (Xie &
// Srivastava); keyBits must be even.
func LockAntiSAT(orig *Circuit, keyBits int, seed int64) (*Locked, error) {
	return lock.AntiSAT(orig, keyBits, rand.New(rand.NewSource(seed)))
}

// LockSARLock locks a circuit with SARLock (Yasin et al.).
func LockSARLock(orig *Circuit, keyBits int, seed int64) (*Locked, error) {
	return lock.SARLock(orig, keyBits, rand.New(rand.NewSource(seed)))
}

// FM computes the figure of merit (eq. 7) between two signal-
// probability matrices indexed [input][output].
func FM(oracleProbs, keyProbs [][]float64) float64 { return metrics.FM(oracleProbs, keyProbs) }

// HD computes the signal-probability Hamming distance (eq. 8).
func HD(oracleProbs, keyProbs [][]float64) float64 { return metrics.HD(oracleProbs, keyProbs) }

// BERStats reports measured average/maximum output bit error ratios.
type BERStats = metrics.BERStats

// MeasureBER samples a probabilistic chip and reports its output BERs
// relative to the deterministic reference (Table II's BER columns).
func MeasureBER(c *Circuit, key []bool, eps float64, inputs, samples int, seed int64) BERStats {
	return metrics.MeasureBER(c, key, eps, inputs, samples, seed)
}

// KeysEquivalent decides exactly (via SAT) whether two keys induce the
// same function on the locked circuit.
func KeysEquivalent(locked *Circuit, keyA, keyB []bool) (bool, error) {
	return metrics.KeysEquivalent(locked, keyA, keyB)
}

// EquivalentToOriginal decides exactly whether locked+key matches an
// unlocked reference circuit.
func EquivalentToOriginal(locked *Circuit, key []bool, orig *Circuit) (bool, error) {
	return metrics.EquivalentToOriginal(locked, key, orig)
}

// Tracer receives attack trace events (set it via Options.Tracer,
// SATOptions.Tracer or PSATOptions.Tracer). Implementations must
// tolerate concurrent Emit calls. The event schema is documented in
// docs/OBSERVABILITY.md.
type Tracer = trace.Tracer

// TraceEvent is one trace record; TraceEventType discriminates its
// payload.
type (
	TraceEvent     = trace.Event
	TraceEventType = trace.EventType
)

// Trace event types, re-exported from the schema (docs/OBSERVABILITY.md).
const (
	TraceAttackStart  = trace.AttackStart
	TraceIterStart    = trace.IterStart
	TraceIterEnd      = trace.IterEnd
	TraceDIPFound     = trace.DIPFound
	TraceBitsGated    = trace.BitsGated
	TraceFork         = trace.Fork
	TraceForceProceed = trace.ForceProceed
	TraceInstanceDead = trace.InstanceDead
	TraceKeyAccepted  = trace.KeyAccepted
	TraceAttackEnd    = trace.AttackEnd
	TraceEvalStart    = trace.EvalStart
	TraceKeyScored    = trace.KeyScored
	TraceEvalEnd      = trace.EvalEnd
	TraceInterrupted  = trace.Interrupted
)

// NewJSONLTracer writes one JSON object per event to w (the JSON-lines
// wire format of docs/OBSERVABILITY.md). Writes are serialised; write
// errors are swallowed — tracing never fails an attack.
func NewJSONLTracer(w io.Writer) Tracer { return trace.NewJSONL(w) }

// NewTextTracer writes a compact human-readable line per event to w.
func NewTextTracer(w io.Writer) Tracer { return trace.NewText(w) }

// MultiTracer fans events out to several sinks (nils are skipped; an
// empty result is a nil Tracer, i.e. tracing off).
func MultiTracer(ts ...Tracer) Tracer { return trace.Multi(ts...) }

// TraceRecorder captures events in memory for later inspection.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns an empty, ready-to-use recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }
