package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
	"statsat/internal/leakcheck"
	"statsat/internal/lock"
	"statsat/internal/metrics"
	"statsat/internal/oracle"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// quickOpts returns CI-sized attack options.
func quickOpts(eps float64, nInst int) Options {
	return Options{
		Ns:     150,
		NSatis: 12,
		NEval:  40,
		EvalNs: 150,
		NInst:  nInst,
		EpsG:   eps,
		Seed:   1,
	}
}

func lockedSmall(t testing.TB, seed int64, keys int) (*circuit.Circuit, *lock.Locked) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bm, _ := gen.ByName("c880")
	orig := bm.BuildScaled(8)
	l, err := lock.RLL(orig, keys, rng)
	if err != nil {
		t.Fatal(err)
	}
	return orig, l
}

func TestAttackDeterministicOracleExactKey(t *testing.T) {
	// eps=0: StatSAT should behave like the standard SAT attack and
	// find an equivalent key with a single instance.
	orig, l := lockedSmall(t, 1, 10)
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, 0, 10)
	res, err := Attack(context.Background(), l.Circuit, orc, quickOpts(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no key recovered")
	}
	eq, err := metrics.EquivalentToOriginal(l.Circuit, res.Best.Key, orig)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("key %v not equivalent", res.Best.Key)
	}
	if res.Instances != 1 || res.Forks != 0 {
		t.Errorf("eps=0 run forked: %d instances, %d forks", res.Instances, res.Forks)
	}
	if res.Best.FM != 0 {
		t.Errorf("FM of exact key under eps=0 should be 0, got %v", res.Best.FM)
	}
}

func TestAttackNoisyOracleRecoversKey(t *testing.T) {
	// Moderate noise: the attack must return a key whose behaviour is
	// statistically close; usually the exactly-correct key.
	orig, l := lockedSmall(t, 2, 10)
	const eps = 0.01
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 20)
	res, err := Attack(context.Background(), l.Circuit, orc, quickOpts(eps, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no key recovered")
	}
	if res.Best.HD > 0.2 {
		t.Errorf("best key HD %.4f too large", res.Best.HD)
	}
	eq, err := metrics.EquivalentToOriginal(l.Circuit, res.Best.Key, orig)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Logf("note: best key not exactly equivalent (HD=%.4f, FM=%.4f) — acceptable at this noise",
			res.Best.HD, res.Best.FM)
	}
	if res.OracleQueries == 0 || res.EvalQueries == 0 {
		t.Error("query accounting missing")
	}
	if res.AttackDuration <= 0 || res.EvalDuration <= 0 {
		t.Error("duration accounting missing")
	}
}

func TestAttackSFLLNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bm, _ := gen.ByName("c880")
	orig := bm.BuildScaled(8)
	l, err := lock.SFLLHD(orig, 6, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.005
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 30)
	opts := quickOpts(eps, 8)
	opts.MaxTotalIter = 3000
	res, err := Attack(context.Background(), l.Circuit, orc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no key recovered")
	}
	eq, err := metrics.EquivalentToOriginal(l.Circuit, res.Best.Key, orig)
	if err != nil {
		t.Fatal(err)
	}
	if !eq && res.Best.HD > 0.05 {
		t.Errorf("SFLL best key poor: HD=%.4f eq=%v", res.Best.HD, eq)
	}
}

func TestAttackKeysSortedByFM(t *testing.T) {
	_, l := lockedSmall(t, 4, 8)
	const eps = 0.015
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 40)
	res, err := Attack(context.Background(), l.Circuit, orc, quickOpts(eps, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i].FM < res.Keys[i-1].FM {
			t.Errorf("keys not sorted by FM: %v then %v", res.Keys[i-1].FM, res.Keys[i].FM)
		}
	}
	if res.Best != &res.Keys[0] {
		t.Error("Best should alias Keys[0]")
	}
	if len(res.Keys) > 4 {
		t.Errorf("%d keys exceed N_inst=4", len(res.Keys))
	}
}

func TestAttackOptionValidation(t *testing.T) {
	_, l := lockedSmall(t, 5, 6)
	other := gen.Random("o", 4, 20, 3, 2)
	orc := oracle.NewDeterministic(other, nil)
	if _, err := Attack(context.Background(), l.Circuit, orc, Options{}); err == nil {
		t.Error("want interface mismatch error")
	}
	// Unlocked circuit.
	orc2 := oracle.NewDeterministic(other, nil)
	if _, err := Attack(context.Background(), other, orc2, Options{}); err == nil {
		t.Error("want error for keyless circuit")
	}
}

func TestOptionDefaults(t *testing.T) {
	var o Options
	o.setDefaults()
	if o.Ns != 500 || o.NSatis != 100 || o.NEval != 2000 ||
		o.ULambda != 0.25 || o.ELambda != 0.30 || o.NInst != 1 || o.EvalNs != 500 {
		t.Errorf("paper defaults wrong: %+v", o)
	}
}

func TestAttackTruncationGuard(t *testing.T) {
	_, l := lockedSmall(t, 6, 12)
	const eps = 0.04 // aggressive noise
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 60)
	opts := quickOpts(eps, 2)
	opts.MaxTotalIter = 5 // tiny budget
	res, err := Attack(context.Background(), l.Circuit, orc, opts)
	if err == ErrNoInstances {
		return // acceptable: budget killed everything
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated && res.TotalIterations > 5 {
		t.Errorf("iteration budget not honoured: %d", res.TotalIterations)
	}
}

func TestDipHelpers(t *testing.T) {
	d := &dip{y: []int8{-1, 0, 1, -1}}
	u := d.unspecifiedInto(nil)
	if len(u) != 2 || u[0] != 0 || u[1] != 3 {
		t.Errorf("unspecified = %v", u)
	}
	// Buffer reuse keeps the contents correct.
	u = d.unspecifiedInto(u)
	if len(u) != 2 || u[0] != 0 || u[1] != 3 {
		t.Errorf("unspecified (reused buf) = %v", u)
	}
	c := d.cloneFor()
	c.y[0] = 1
	if d.y[0] != -1 {
		t.Error("cloneFor shares y")
	}
}

func TestArgHelpers(t *testing.T) {
	vals := []float64{0.5, 0.1, 0.9, 0.3}
	if argmaxAt(vals, []int{0, 1, 2, 3}) != 2 {
		t.Error("argmax wrong")
	}
	if argminAt(vals, []int{0, 1, 2, 3}) != 1 {
		t.Error("argmin wrong")
	}
	if argmaxAt(vals, []int{0, 3}) != 0 {
		t.Error("argmax over subset wrong")
	}
}

func TestKeyOf(t *testing.T) {
	if keyOf([]bool{true, false, true}) != "101" {
		t.Errorf("keyOf = %q", keyOf([]bool{true, false, true}))
	}
}

func TestInstanceStatsLineage(t *testing.T) {
	_, l := lockedSmall(t, 17, 10)
	const eps = 0.025
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 600)
	opts := quickOpts(eps, 8)
	opts.MaxTotalIter = 3000
	res, err := Attack(context.Background(), l.Circuit, orc, opts)
	if err == ErrNoInstances {
		t.Skip("all instances died on this seed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InstanceStats) != res.InstancesCreated {
		t.Fatalf("stats %d != created %d", len(res.InstanceStats), res.InstancesCreated)
	}
	seen := map[int]bool{}
	for i, st := range res.InstanceStats {
		if seen[st.ID] {
			t.Fatalf("duplicate instance id %d", st.ID)
		}
		seen[st.ID] = true
		if i == 0 {
			if st.Parent != -1 {
				t.Errorf("root parent = %d", st.Parent)
			}
		} else if !seen[st.Parent] {
			t.Errorf("instance %d forked from unseen parent %d", st.ID, st.Parent)
		}
		if st.Outcome != "finished" && st.Outcome != "dead" && st.Outcome != "running" {
			t.Errorf("bad outcome %q", st.Outcome)
		}
		if st.KeyFound && st.Outcome != "finished" {
			t.Errorf("key without finished state: %+v", st)
		}
	}
	// Every reported key's instance must appear as finished.
	for _, k := range res.Keys {
		found := false
		for _, st := range res.InstanceStats {
			if st.ID == k.Instance && st.Outcome == "finished" {
				found = true
			}
		}
		if !found {
			t.Errorf("key from instance %d has no finished stat", k.Instance)
		}
	}
}

func TestFmtY(t *testing.T) {
	if got := fmtY([]int8{-1, 0, 1}); got != "x01" {
		t.Errorf("fmtY = %q", got)
	}
	if got := fmtY(nil); got != "" {
		t.Errorf("fmtY(nil) = %q", got)
	}
}

func TestAttackWithLogging(t *testing.T) {
	// Exercise the verbose code paths (per-DIP logging, finish logs,
	// dead-instance diagnostics) end to end.
	_, l := lockedSmall(t, 13, 8)
	const eps = 0.03
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 400)
	opts := quickOpts(eps, 2)
	opts.MaxTotalIter = 400
	lines := 0
	opts.Logf = func(format string, args ...interface{}) { lines++ }
	if _, err := Attack(context.Background(), l.Circuit, orc, opts); err != nil && err != ErrNoInstances {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Error("Logf never called")
	}
}

func TestUncertaintyGatingLeavesBitsUnspecified(t *testing.T) {
	// Construct a locked circuit with one output fed through a long
	// noisy chain (high BER → high uncertainty) and one clean output.
	// At moderate eps, StatSAT must leave the noisy output unspecified
	// in its first DIP.
	c := circuit.New("gate")
	a := c.AddInput("a")
	b := c.AddInput("b")
	clean := c.AddGate(circuit.And, "clean", a, b)
	w := c.AddGate(circuit.Or, "w0", a, b)
	for i := 0; i < 40; i++ {
		w = c.AddGate(circuit.Buf, "", w)
	}
	c.AddOutput(clean, "y0")
	c.AddOutput(w, "y1")
	rng := rand.New(rand.NewSource(7))
	l, err := lock.RLL(c, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.02 // 40-deep chain → output BER ≈ 0.28, U >> 0.25 sometimes
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 70)
	opts := quickOpts(eps, 4)
	opts.MaxTotalIter = 200
	res, err := Attack(context.Background(), l.Circuit, orc, opts)
	if err == ErrNoInstances {
		t.Fatal("attack died entirely")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no key")
	}
	// The clean half of the circuit must be unlocked correctly: check
	// output 0 matches on all 4 input patterns.
	for m := 0; m < 4; m++ {
		pi := []bool{m&1 == 1, m&2 == 2}
		want := c.Eval(pi, nil, nil)[0]
		got := l.Circuit.Eval(pi, res.Best.Key, nil)[0]
		if got != want {
			t.Errorf("clean output wrong at %v", pi)
		}
	}
}

// TestAttackRespectsInstanceCap runs attacks noisy enough to fork up
// to their N_inst cap and then force-proceed, over a fixed set of
// chips (which of them reaches the cap depends on the trajectory):
// live instances must never pass the cap, and at least one run must
// reach it and force-proceed.
func TestAttackRespectsInstanceCap(t *testing.T) {
	const eps, nInst = 0.05, 4
	reached := false
	for seed := int64(10); seed <= 15; seed++ {
		_, l := lockedSmall(t, seed, 12)
		orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 300+seed)
		opts := quickOpts(eps, nInst)
		opts.MaxTotalIter = 2000
		res, err := Attack(context.Background(), l.Circuit, orc, opts)
		if err != nil {
			t.Fatalf("lock seed %d: %v", seed, err)
		}
		if res.Instances > nInst {
			t.Errorf("lock seed %d: run used %d live instances, cap was %d", seed, res.Instances, nInst)
		}
		if len(res.Keys) > nInst {
			t.Errorf("lock seed %d: %d keys exceed N_inst", seed, len(res.Keys))
		}
		if res.Instances == nInst && res.ForceProceeds > 0 {
			reached = true
		}
	}
	if !reached {
		t.Errorf("no run reached its cap of %d live instances and force-proceeded", nInst)
	}
}

func TestEstimateGateErrorOrdering(t *testing.T) {
	// The estimate must increase with the true eps and stay within an
	// order of magnitude (paper Table IV: underestimates but usable).
	_, l := lockedSmall(t, 8, 8)
	est := make([]float64, 0, 2)
	for _, eps := range []float64{0.005, 0.03} {
		orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 80)
		e := EstimateGateError(context.Background(), l.Circuit, orc, EstimateOptions{NProbe: 8, Ns: 120, NKeys: 3, Seed: 5})
		if e <= 0 || e > 0.3 {
			t.Fatalf("estimate %v out of range", e)
		}
		est = append(est, e)
	}
	if est[1] <= est[0] {
		t.Errorf("estimate not increasing with true eps: %v", est)
	}
}

func TestEstimateGateErrorZeroNoise(t *testing.T) {
	_, l := lockedSmall(t, 9, 6)
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, 0, 90)
	e := EstimateGateError(context.Background(), l.Circuit, orc, EstimateOptions{NProbe: 5, Ns: 80, NKeys: 2, Seed: 6})
	if e > 0.01 {
		t.Errorf("noise-free oracle estimated eps %v, want tiny", e)
	}
}

func TestEstimateDefaults(t *testing.T) {
	var o EstimateOptions
	o.setDefaults()
	if o.NProbe != 20 || o.Ns != 200 || o.NKeys != 5 || o.Step != 1.25 ||
		math.Abs(o.AbsTol-0.02) > 1e-12 || math.Abs(o.RelTol-0.25) > 1e-12 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestAttackHigherNoiseNeedsMoreInstances(t *testing.T) {
	// Qualitative Table II property: at higher eps, a 1-instance run
	// is more likely to fail or yield a worse key than an 8-instance
	// run. We assert the 8-instance run succeeds.
	_, l := lockedSmall(t, 10, 8)
	const eps = 0.02
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 100)
	opts := quickOpts(eps, 8)
	opts.MaxTotalIter = 4000
	res, err := Attack(context.Background(), l.Circuit, orc, opts)
	if err != nil {
		t.Fatalf("8-instance attack failed outright: %v", err)
	}
	if res.Best == nil || res.Best.HD > 0.25 {
		t.Errorf("8-instance attack quality poor: %+v", res.Best)
	}
}

func BenchmarkAttackC880Scale8Eps1pc(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bm, _ := gen.ByName("c880")
	orig := bm.BuildScaled(8)
	l, err := lock.RLL(orig, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		orc := oracle.NewProbabilistic(l.Circuit, l.Key, 0.01, int64(i))
		if _, err := Attack(context.Background(), l.Circuit, orc, quickOpts(0.01, 4)); err != nil && err != ErrNoInstances {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateGateError runs the §V-E estimator with its default
// options, as cmd/statsat does when -epsg is left unset, on the c880
// stand-in at its published size against a chip at eps 1%. Its sweep
// builds NProbe×NKeys fresh noisy simulations at every grid eps' it
// visits; the reported eps' is where it stopped.
func BenchmarkEstimateGateError(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bm, _ := gen.ByName("c880")
	l, err := lock.RLL(bm.BuildScaled(1), 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var est float64
	for i := 0; i < b.N; i++ {
		orc := oracle.NewProbabilistic(l.Circuit, l.Key, 0.01, 7)
		est = EstimateGateError(context.Background(), l.Circuit, orc, EstimateOptions{Seed: 1})
	}
	b.ReportMetric(est, "eps'")
}
