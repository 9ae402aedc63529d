package core

import (
	"context"
	"testing"

	"statsat/internal/engine"
	"statsat/internal/oracle"
	"statsat/internal/sat"
	"statsat/internal/trace"
)

// TestKeyPoolInvariants drives StatSAT step by step, with N_inst 4 on a
// chip noisy enough to fork and force-proceed, and after every step
// checks each live instance's key pool: its keys are distinct and at
// most N_satis; each satisfies every specified bit of every recorded
// DIP, by direct evaluation; and each is a model of the instance's key
// solver, checked on a clone so the run is not perturbed.
func TestKeyPoolInvariants(t *testing.T) {
	const eps, nInst, seed = 0.05, 4, 11
	_, l := lockedSmall(t, seed, 12)
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 300+seed)
	opts := quickOpts(eps, nInst)
	opts.MaxTotalIter = 2000
	opts.setDefaults()

	run := &attackRun{locked: l.Circuit, orc: orc, opts: opts, res: &Result{}}
	run.tr = trace.NewEmitter(nil)
	run.eng = &engine.Engine{Locked: l.Circuit, Orc: orc, Tr: run.tr}
	root, err := run.newRootInstance()
	if err != nil {
		t.Fatal(err)
	}
	run.insts = []*instance{root}

	ctx := context.Background()
	steps, pooledKeys, scratch := 0, 0, []bool(nil)
	for progressed := true; progressed; {
		progressed = false
		for i := 0; i < len(run.insts); i++ {
			if run.insts[i].state != running {
				continue
			}
			if !run.takeIteration() {
				t.Fatal("iteration budget exhausted")
			}
			if err := run.step(ctx, run.insts[i]); err != nil {
				t.Fatal(err)
			}
			steps++
			progressed = true
			for _, in := range run.insts {
				if in.state != running {
					continue
				}
				pooledKeys += len(in.pool)
				scratch = checkPool(t, run, in, steps, scratch)
			}
		}
	}
	if run.res.Forks == 0 || run.res.ForceProceeds == 0 {
		t.Fatalf("%d forks, %d force-proceeds: the run never reached the repeat paths", run.res.Forks, run.res.ForceProceeds)
	}
	if pooledKeys == 0 {
		t.Fatal("no live instance ever held a pooled key")
	}
	t.Logf("%d steps, %d forks, %d force-proceeds, %d pooled keys checked",
		steps, run.res.Forks, run.res.ForceProceeds, pooledKeys)
}

func checkPool(t *testing.T, run *attackRun, in *instance, step int, scratch []bool) []bool {
	t.Helper()
	if len(in.pool) > run.opts.NSatis {
		t.Fatalf("step %d, instance %d: %d pooled keys, N_satis is %d", step, in.ID, len(in.pool), run.opts.NSatis)
	}
	seen := map[string]bool{}
	ks := in.KS.Clone()
	assume := make([]sat.Lit, len(ks.Keys))
	for _, key := range in.pool {
		s := keyOf(key)
		if seen[s] {
			t.Fatalf("step %d, instance %d: key %s pooled twice", step, in.ID, s)
		}
		seen[s] = true
		for di, d := range in.dips {
			scratch = run.locked.EvalWires(d.x, key, scratch)
			for j, v := range d.y {
				if v >= 0 && scratch[run.locked.POs[j]] != (v == 1) {
					t.Fatalf("step %d, instance %d: pooled key %s gives output %d of DIP %d as %v, specified %d",
						step, in.ID, s, j, di, scratch[run.locked.POs[j]], v)
				}
			}
		}
		for i, l := range ks.Keys {
			if key[i] {
				assume[i] = l
			} else {
				assume[i] = l.Not()
			}
		}
		if st := ks.S.Solve(assume...); st != sat.Sat {
			t.Fatalf("step %d, instance %d: pooled key %s is not a model of the key solver (%v)", step, in.ID, s, st)
		}
	}
	return scratch
}

// TestTraceCountsPooledCandidates: dip_found says how many of its
// candidates the pool supplied. The root's first DIP has none to offer;
// later DIPs take most of theirs from the pool.
func TestTraceCountsPooledCandidates(t *testing.T) {
	const eps, seed = 0.05, 11
	_, l := lockedSmall(t, seed, 12)
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 300+seed)
	opts := quickOpts(eps, 4)
	rec := trace.NewRecorder()
	opts.Tracer = rec
	if _, err := Attack(context.Background(), l.Circuit, orc, opts); err != nil {
		t.Fatal(err)
	}
	dips, pooled := 0, 0
	for _, ev := range rec.Events() {
		if ev.Type != trace.DIPFound {
			continue
		}
		d := ev.DIP
		if d.Pooled < 0 || d.Pooled > d.Candidates || d.Candidates > opts.NSatis {
			t.Errorf("instance %d DIP %d: %d pooled of %d candidates, N_satis %d",
				ev.Instance, d.Index, d.Pooled, d.Candidates, opts.NSatis)
		}
		if ev.Instance == 0 && d.Index == 0 && d.Pooled != 0 {
			t.Errorf("the root's first DIP took %d keys from an empty pool", d.Pooled)
		}
		dips++
		pooled += d.Pooled
	}
	if dips < 2 || pooled == 0 {
		t.Fatalf("%d DIPs, %d pooled candidates: the pool never supplied one", dips, pooled)
	}
}
