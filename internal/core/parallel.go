package core

import (
	"context"
	"sync"

	"statsat/internal/oracle"
)

// lockedOracle serialises access to a (stateful) oracle so multiple
// instance goroutines can share the activated chip. This matches the
// physical reality: the attacker owns one chip and queries it
// sequentially; parallelism buys concurrent SAT solving and BER
// estimation, not concurrent silicon. It blocks exactly when the inner
// oracle does (oracle.Blocks).
type lockedOracle struct {
	mu    sync.Mutex
	inner oracle.Oracle
}

func (o *lockedOracle) Query(x []bool) []bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.Query(x)
}

func (o *lockedOracle) QueryBlock(x []bool, words int) []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	blq, _ := oracle.Blocks(o.inner)
	// The inner oracle reuses its block buffer across calls
	// (oracle.BlockQuerier contract); the caller reads the words after
	// the lock is released, so hand out a private copy — otherwise a
	// concurrent instance's next pass would overwrite them mid-read.
	return append([]uint64(nil), blq.QueryBlock(x, words)...)
}

func (o *lockedOracle) BlockWords() int {
	_, w := oracle.Blocks(o.inner)
	return w
}

func (o *lockedOracle) NumInputs() int  { return o.inner.NumInputs() }
func (o *lockedOracle) NumOutputs() int { return o.inner.NumOutputs() }

func (o *lockedOracle) Queries() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.inner.Queries()
}

// NoiseDraws forwards oracle.NoiseCounter when the chip counts noise
// draws (zero otherwise), so engine checkpoints can stamp the stream
// position through the serialising wrapper.
func (o *lockedOracle) NoiseDraws() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if nc, ok := o.inner.(interface{ NoiseDraws() uint64 }); ok {
		return nc.NoiseDraws()
	}
	return 0
}

// wrapOracle returns a goroutine-safe view of orc that keeps its
// blocked sampling when it has one.
func wrapOracle(orc oracle.Oracle) oracle.Oracle {
	return &lockedOracle{inner: orc}
}

// runParallel executes the instance scheduler with one goroutine per
// live instance; forked children get their own goroutines via
// run.spawn. The N_inst bound, the iteration budget and all result
// counters are enforced exactly as in the sequential path (shared
// bookkeeping sits behind run.mu).
func (run *attackRun) runParallel(ctx context.Context, root *instance) {
	var wg sync.WaitGroup
	run.spawn = func(in *instance) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run.instanceLoop(ctx, in)
		}()
	}
	run.spawn(root)
	wg.Wait()
	run.spawn = nil
}

// instanceLoop drives one instance until it finishes, dies, errors,
// exhausts the shared iteration budget, or the context is cancelled.
func (run *attackRun) instanceLoop(ctx context.Context, in *instance) {
	for {
		run.mu.Lock()
		stop := run.err != nil || in.state != running
		run.mu.Unlock()
		if stop {
			return
		}
		if err := ctx.Err(); err != nil {
			run.setErr(run.interrupted(in, err))
			return
		}
		if !run.takeIteration() {
			run.markTruncated()
			return
		}
		if err := run.step(ctx, in); err != nil {
			run.setErr(err)
			return
		}
	}
}
