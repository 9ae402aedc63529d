package statsat_test

import (
	"context"
	"errors"
	"testing"

	"statsat"
)

// cancelOracle is a noisy chip that answers scalar queries only. Its
// embedded field's static type is the Oracle interface, so the inner
// oracle's QueryBlock is hidden and sampling checks ctx before every
// query. The cancelAt-th query cancels the run's context; queries
// answered after it are counted in late.
type cancelOracle struct {
	statsat.Oracle
	n, cancelAt, late int64
	cancel            context.CancelFunc
}

func (o *cancelOracle) Query(x []bool) []bool {
	o.n++
	switch {
	case o.cancelAt > 0 && o.n == o.cancelAt:
		o.cancel()
	case o.cancelAt > 0 && o.n > o.cancelAt:
		o.late++
	}
	return o.Oracle.Query(x)
}

// cancelRun builds a fresh chip that cancels ctx at its cancelAt-th
// query (never, for 0), hands both to run, and returns the chip.
func cancelRun(t *testing.T, locked *statsat.Locked, cancelAt int64, run func(ctx context.Context, orc statsat.Oracle)) *cancelOracle {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	orc := &cancelOracle{
		Oracle:   statsat.NewNoisyOracle(locked.Circuit, locked.Key, 0.01, 30),
		cancelAt: cancelAt,
		cancel:   cancel,
	}
	run(ctx, orc)
	return orc
}

// checkNoLateQueries asserts that the cancel fired and that the chip
// answered nothing after it.
func checkNoLateQueries(t *testing.T, orc *cancelOracle) {
	t.Helper()
	if orc.n < orc.cancelAt {
		t.Fatalf("run made %d queries and never reached the cancel at query %d", orc.n, orc.cancelAt)
	}
	if orc.late != 0 {
		t.Errorf("chip answered %d queries after the cancel at query %d", orc.late, orc.cancelAt)
	}
}

// cancelLocked is c880 at 1/8 scale under an 8-bit RLL lock: small
// enough that each run below takes milliseconds.
func cancelLocked(t *testing.T) *statsat.Locked {
	t.Helper()
	bm, _ := statsat.BenchmarkByName("c880")
	locked, err := statsat.LockRLL(bm.BuildScaled(8), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	return locked
}

// midChunk returns the query halfway through the k-th run of ns
// queries that one sampling call makes, counted from base, so a
// sampler that ignored the cancel would still owe the chip ns/2
// queries.
func midChunk(base int64, k, ns int) int64 { return base + int64(k*ns+ns/2) }

// TestCancelStatSATStopsOracleQueries cancels StatSAT from inside the
// chip, once in its attack phase and once in its evaluation phase. The
// chip must answer no query after the cancelling one, and the run must
// return ErrInterrupted.
func TestCancelStatSATStopsOracleQueries(t *testing.T) {
	locked := cancelLocked(t)
	opts := statsat.Options{Ns: 150, NSatis: 12, NEval: 40, EvalNs: 150, NInst: 4, EpsG: 0.01, Seed: 1}
	var dry *statsat.Result
	cancelRun(t, locked, 0, func(ctx context.Context, orc statsat.Oracle) {
		var err error
		if dry, err = statsat.AttackCtx(ctx, locked.Circuit, orc, opts); err != nil {
			t.Fatal(err)
		}
	})
	attackChunks := int(dry.OracleQueries) / opts.Ns
	if attackChunks < 2 || dry.EvalQueries < int64(opts.EvalNs) {
		t.Fatalf("uncancelled run made %d attack and %d evaluation queries; too few to cancel inside",
			dry.OracleQueries, dry.EvalQueries)
	}
	for _, tc := range []struct {
		phase    string
		cancelAt int64
	}{
		{"attack", midChunk(0, attackChunks/2, opts.Ns)},
		{"eval", midChunk(dry.OracleQueries, 0, opts.EvalNs)},
	} {
		t.Run(tc.phase, func(t *testing.T) {
			orc := cancelRun(t, locked, tc.cancelAt, func(ctx context.Context, orc statsat.Oracle) {
				if _, err := statsat.AttackCtx(ctx, locked.Circuit, orc, opts); !errors.Is(err, statsat.ErrInterrupted) {
					t.Errorf("err = %v, want ErrInterrupted", err)
				}
			})
			checkNoLateQueries(t, orc)
		})
	}
}

// TestCancelEstimateGateErrorStopsOracleQueries cancels the ε_g
// estimator while it samples the chip; it only has to return.
func TestCancelEstimateGateErrorStopsOracleQueries(t *testing.T) {
	locked := cancelLocked(t)
	opts := statsat.EstimateOptions{Ns: 200, Seed: 4}
	orc := cancelRun(t, locked, midChunk(0, 0, opts.Ns), func(ctx context.Context, orc statsat.Oracle) {
		statsat.EstimateGateErrorCtx(ctx, locked.Circuit, orc, opts)
	})
	checkNoLateQueries(t, orc)
}

// TestCancelPSATStopsOracleQueries cancels PSAT while it samples the
// chip for a pattern.
func TestCancelPSATStopsOracleQueries(t *testing.T) {
	locked := cancelLocked(t)
	opts := statsat.PSATOptions{Ns: 150, Seed: 1}
	orc := cancelRun(t, locked, midChunk(0, 2, opts.Ns), func(ctx context.Context, orc statsat.Oracle) {
		if _, err := statsat.PSATCtx(ctx, locked.Circuit, orc, opts); !errors.Is(err, statsat.ErrInterrupted) {
			t.Errorf("err = %v, want ErrInterrupted", err)
		}
	})
	checkNoLateQueries(t, orc)
}
