package main

import (
	"sync"
	"time"

	"statsat"
)

// spans attributes a traced pass's time to the layers one attack
// passes through. It is the benchmark-side Tracer of the traced pass
// and the sink of the timed oracle wrapper; both stamp with now(), so
// event and oracle-call times share one monotonic clock.
//
// With the default sequential scheduler every Engine.Step runs on one
// goroutine, so the spans of one iteration follow each other without
// overlap:
//
//	iteration_start ─ miter solve ─ first oracle call … last return ─ record/install ─ iteration_end
//
// A DI iteration (any status but repeat and unsat) splits into
// engine.solve_s (start to the first oracle call), oracle.attack_s
// (inside oracle calls) and the rest after the first call: core.record_s
// for StatSAT (key enumeration, BER estimation, constraint install),
// attack.install_s for the baselines (DIP encoding, and AppSAT's
// periodic reconciliation). A repeat iteration is engine.repeat_s and
// the final UNSAT iteration, key extraction included, engine.converge_s.
// eval_start to eval_end is metrics.eval_s, of which the oracle calls
// are oracle.eval_s.
type spans struct {
	mu    sync.Mutex
	clock func() time.Time // now, or a scripted clock in tests

	baseline bool // the running job is a baseline attack

	inIter    bool
	iterStart time.Time
	called    bool
	firstCall time.Time
	inCalls   time.Duration
	snap      [3]int64 // conflicts, propagations, decisions at iteration_start
	inEval    bool
	evalStart time.Time

	layers layerTotals
}

// layerTotals are the accumulated span times and counters.
type layerTotals struct {
	total                                    time.Duration // traced job time
	solve, converge, repeat, record, install time.Duration
	oracleAttack, oracleEval, eval           time.Duration
	dipIters, repeatIters, unsatIters        int
	conflicts, propagations, decisions       int64
	candidates, forks, forceProceeds, dead   int
	calls                                    int
	attackQueries, evalQueries               int64
}

// covered is the traced time some span accounts for.
func (l *layerTotals) covered() time.Duration {
	return l.solve + l.converge + l.repeat + l.record + l.install + l.oracleAttack + l.eval
}

// runJob traces one job: f runs the attack with the tracer attached.
func (s *spans) runJob(baseline bool, f func()) {
	s.mu.Lock()
	s.baseline, s.inIter, s.inEval = baseline, false, false
	s.mu.Unlock()
	t0 := s.clock()
	f()
	d := s.clock().Sub(t0)
	s.mu.Lock()
	s.layers.total += d
	s.mu.Unlock()
}

// Emit implements statsat.Tracer.
func (s *spans) Emit(ev statsat.TraceEvent) {
	t := s.clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &s.layers
	switch ev.Type {
	case statsat.TraceIterStart:
		s.inIter, s.iterStart, s.called, s.inCalls = true, t, false, 0
		if ev.Solver != nil {
			s.snap = [3]int64{ev.Solver.Conflicts, ev.Solver.Propagations, ev.Solver.Decisions}
		}
	case statsat.TraceIterEnd:
		if !s.inIter {
			return
		}
		s.inIter = false
		if ev.Solver != nil {
			l.conflicts += ev.Solver.Conflicts - s.snap[0]
			l.propagations += ev.Solver.Propagations - s.snap[1]
			l.decisions += ev.Solver.Decisions - s.snap[2]
		}
		span := t.Sub(s.iterStart)
		switch ev.Status {
		case "repeat":
			l.repeatIters++
			l.repeat += span
		case "unsat":
			l.unsatIters++
			l.converge += span
		default:
			l.dipIters++
			if !s.called {
				l.solve += span
				return
			}
			l.solve += s.firstCall.Sub(s.iterStart)
			post := t.Sub(s.firstCall) - s.inCalls
			if s.baseline {
				l.install += post
			} else {
				l.record += post
			}
		}
	case statsat.TraceDIPFound:
		if ev.DIP != nil {
			l.candidates += ev.DIP.Candidates
		}
	case statsat.TraceFork:
		l.forks++
	case statsat.TraceForceProceed:
		l.forceProceeds++
	case statsat.TraceInstanceDead:
		l.dead++
	case statsat.TraceEvalStart:
		s.inEval, s.evalStart = true, t
	case statsat.TraceEvalEnd:
		if s.inEval {
			s.inEval = false
			l.eval += t.Sub(s.evalStart)
		}
	}
}

// oracleCall books one chip call that ran from t0 to t1 and drew n
// samples.
func (s *spans) oracleCall(t0, t1 time.Time, n int64) {
	d := t1.Sub(t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &s.layers
	l.calls++
	if s.inEval {
		l.oracleEval += d
		l.evalQueries += n
		return
	}
	l.oracleAttack += d
	l.attackQueries += n
	if s.inIter {
		if !s.called {
			s.called, s.firstCall = true, t0
		}
		s.inCalls += d
	}
}

// timedOracle wraps a scalar chip: it times every Query and books it
// with the span recorder.
type timedOracle struct {
	inner statsat.Oracle
	rec   *spans
}

func (o *timedOracle) Query(x []bool) []bool {
	q0, t0 := o.inner.Queries(), o.rec.clock()
	y := o.inner.Query(x)
	o.rec.oracleCall(t0, o.rec.clock(), o.inner.Queries()-q0)
	return y
}

func (o *timedOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *timedOracle) NumOutputs() int { return o.inner.NumOutputs() }
func (o *timedOracle) Queries() int64  { return o.inner.Queries() }

// blockSampler is the blocked sampling path of a chip that draws
// words×64 samples per call.
type blockSampler interface {
	QueryBlock(x []bool, words int) []uint64
	BlockWords() int
}

// timedBlockOracle wraps a chip that samples in blocks. It keeps the
// blocked path the attacks select by method set: QueryBlock and
// BlockWords are forwarded and QueryBatch is the one-word block, as the
// probabilistic chip itself defines it, so the wrapped chip draws the
// same noise in the same order as the bare one.
type timedBlockOracle struct {
	timedOracle
	blk blockSampler
}

func (o *timedBlockOracle) QueryBlock(x []bool, words int) []uint64 {
	q0, t0 := o.inner.Queries(), o.rec.clock()
	w := o.blk.QueryBlock(x, words)
	o.rec.oracleCall(t0, o.rec.clock(), o.inner.Queries()-q0)
	return w
}

func (o *timedBlockOracle) QueryBatch(x []bool) []uint64 { return o.QueryBlock(x, 1) }

func (o *timedBlockOracle) BlockWords() int { return o.blk.BlockWords() }

// timeOracle wraps orc for a traced pass, keeping its sampling path.
func timeOracle(orc statsat.Oracle, rec *spans) statsat.Oracle {
	t := timedOracle{inner: orc, rec: rec}
	if blk, ok := orc.(blockSampler); ok {
		return &timedBlockOracle{timedOracle: t, blk: blk}
	}
	return &t
}
