package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"statsat/internal/engine"
	"statsat/internal/gen"
	"statsat/internal/lock"
	"statsat/internal/oracle"
	"statsat/internal/trace"
)

// lockedC880Full is the Table V workload (full-size c880, 32-bit RLL
// key): big enough that StatSAT cannot converge inside a millisecond.
func lockedC880Full(t testing.TB, seed int64) *lock.Locked {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bm, _ := gen.ByName("c880")
	l, err := lock.RLL(bm.BuildScaled(1), 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestAttackDeadlineInterrupted pins the headline contract: a StatSAT
// run launched with a 1ms deadline on c880 returns ErrInterrupted with
// a non-nil best-effort result instead of hanging.
func TestAttackDeadlineInterrupted(t *testing.T) {
	l := lockedC880Full(t, 11)
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, 0.01, 30)
	rec := trace.NewRecorder()
	opts := quickOpts(0.01, 4)
	opts.Tracer = rec
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	res, err := Attack(ctx, l.Circuit, orc, opts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want to unwrap to context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("interrupted attack returned nil result")
	}
	if len(res.Keys) == 0 || res.Best == nil {
		t.Fatalf("interrupted result has no best-effort key: %+v", res)
	}
	if got := len(res.Best.Key); got != len(l.Key) {
		t.Errorf("best-effort key has %d bits, want %d", got, len(l.Key))
	}
	checkInterruptedTrace(t, rec.Events())
}

// checkInterruptedTrace validates the interrupted-run trace shape: the
// stream still opens with attack_start and closes with attack_end, and
// exactly one interrupted event with a populated payload sits directly
// before attack_end.
func checkInterruptedTrace(t *testing.T, events []trace.Event) {
	t.Helper()
	if len(events) < 3 {
		t.Fatalf("only %d events recorded", len(events))
	}
	if events[0].Type != trace.AttackStart {
		t.Errorf("first event = %s, want attack_start", events[0].Type)
	}
	last, prev := events[len(events)-1], events[len(events)-2]
	if last.Type != trace.AttackEnd {
		t.Errorf("last event = %s, want attack_end", last.Type)
	}
	if prev.Type != trace.Interrupted {
		t.Fatalf("event before attack_end = %s, want interrupted", prev.Type)
	}
	if prev.Interrupt == nil || prev.Interrupt.Cause == "" {
		t.Fatalf("interrupted event missing payload: %+v", prev)
	}
	n := 0
	for _, ev := range events {
		if ev.Type == trace.Interrupted {
			n++
		}
	}
	if n != 1 {
		t.Errorf("interrupted events = %d, want exactly 1", n)
	}
}

// TestAttackCancelAfterFirstStep cancels a forked run from the
// checkpoint sink, right after the first Step of the first forked
// child, so the instance that sees the interrupt next holds fewer
// iterations than the run as a whole. The returned error, the Result
// and the trace's interrupted event must all report the run's total.
func TestAttackCancelAfterFirstStep(t *testing.T) {
	l := lockedC880Full(t, 12)
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, 0.02, 31)
	rec := trace.NewRecorder()
	opts := quickOpts(0.02, 4)
	opts.Tracer = rec
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Checkpoint = func(ck engine.Checkpoint) {
		if ck.Instance > 0 {
			cancel()
		}
	}
	res, err := Attack(ctx, l.Circuit, orc, opts)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want to unwrap to context.Canceled", err)
	}
	if res == nil {
		t.Fatal("interrupted run returned nil result")
	}
	if res.Forks == 0 || len(res.InstanceStats) < 2 {
		t.Fatalf("run was cancelled before it forked: %+v", res.InstanceStats)
	}
	// Keys are best-effort: normally at least one live instance yields
	// a candidate, but under noise every live solver can be UNSAT at
	// the moment of cancellation, so empty keys are legal here.
	if len(res.Keys) == 0 {
		t.Logf("no best-effort key this run (all live solvers UNSAT): %+v", res.InstanceStats)
	}
	var ie *engine.InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %T, want *engine.InterruptedError", err)
	}
	events := rec.Events()
	checkInterruptedTrace(t, events)
	traced := events[len(events)-2].Interrupt.Iterations
	if ie.Iterations != res.TotalIterations || traced != res.TotalIterations {
		t.Errorf("iterations: error %d, Result.TotalIterations %d, trace %d; want all equal",
			ie.Iterations, res.TotalIterations, traced)
	}
}

// TestEstimateGateErrorCancelled checks the estimator's best-effort
// contract: a cancelled context returns immediately with a plain
// float64 (no error channel), never blocking on the grid sweep.
func TestEstimateGateErrorCancelled(t *testing.T) {
	_, l := lockedSmall(t, 3, 8)
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, 0.02, 33)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan float64, 1)
	go func() {
		done <- EstimateGateError(ctx, l.Circuit, orc, EstimateOptions{Seed: 4})
	}()
	select {
	case eps := <-done:
		if eps < 0 {
			t.Errorf("EstimateGateError = %v, want >= 0", eps)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("EstimateGateError did not return under a cancelled context")
	}
}
