package statsat_test

import (
	"strings"
	"testing"

	"statsat"
)

func TestFacadeEndToEnd(t *testing.T) {
	orig := statsat.C17()
	locked, err := statsat.LockRLL(orig, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	orc := statsat.NewNoisyOracle(locked.Circuit, locked.Key, 0.01, 7)
	res, err := statsat.Attack(locked.Circuit, orc, statsat.Options{
		Ns: 200, NSatis: 8, NEval: 40, NInst: 4, EpsG: 0.01, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := statsat.KeysEquivalent(locked.Circuit, res.Best.Key, locked.Key)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("facade attack did not recover an equivalent key (HD=%.4f)", res.Best.HD)
	}
	if eq2, _ := statsat.EquivalentToOriginal(locked.Circuit, res.Best.Key, orig); !eq2 {
		t.Error("recovered key does not restore the original function")
	}
}

func TestFacadeBenchRoundTrip(t *testing.T) {
	orig := statsat.C17()
	locked, err := statsat.LockSFLLHD(orig, 4, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	text := statsat.FormatBench(locked.Circuit)
	back, err := statsat.ParseBenchString(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if back.NumKeys() != 4 {
		t.Errorf("round-trip lost key inputs: %d", back.NumKeys())
	}
	if !strings.Contains(text, "keyinput0") {
		t.Error("serialised netlist missing keyinput names")
	}
	// Functional agreement through the round trip.
	pi := []bool{true, false, true, true, false}
	a := locked.Circuit.Eval(pi, locked.Key, nil)
	b := back.Eval(pi, locked.Key, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("round-trip changed behaviour")
		}
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	bms := statsat.Benchmarks()
	if len(bms) != 7 {
		t.Fatalf("benchmark suite has %d entries", len(bms))
	}
	if _, ok := statsat.BenchmarkByName("seq"); !ok {
		t.Error("seq missing")
	}
	c := statsat.RandomCircuit("r", 8, 50, 4, 1)
	if c.NumPIs() != 8 || c.NumPOs() != 4 {
		t.Error("RandomCircuit dims wrong")
	}
}

func TestFacadeBaselines(t *testing.T) {
	orig := statsat.C17()
	locked, err := statsat.LockSLL(orig, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	det := statsat.NewOracle(locked.Circuit, locked.Key)
	std, err := statsat.StandardSAT(locked.Circuit, det, 0)
	if err != nil {
		t.Fatal(err)
	}
	if std.Key == nil {
		t.Fatal("standard SAT failed on deterministic oracle")
	}
	ps, err := statsat.PSAT(locked.Circuit, det, statsat.PSATOptions{Ns: 3})
	if err != nil || ps.Key == nil {
		t.Fatalf("PSAT on deterministic oracle: %v %v", err, ps)
	}
}

func TestFacadeMetrics(t *testing.T) {
	a := [][]float64{{0.1, 0.9}}
	b := [][]float64{{0.2, 0.9}}
	if statsat.FM(a, b) != 0.05 {
		t.Errorf("FM = %v", statsat.FM(a, b))
	}
	if statsat.HD(a, b) != 0.05 {
		t.Errorf("HD = %v", statsat.HD(a, b))
	}
	orig := statsat.C17()
	locked, _ := statsat.LockRLL(orig, 3, 2)
	s := statsat.MeasureBER(locked.Circuit, locked.Key, 0.05, 10, 50, 1)
	if s.Avg <= 0 || s.Max < s.Avg {
		t.Errorf("BER stats: %+v", s)
	}
}

func TestFacadeEstimator(t *testing.T) {
	orig := statsat.RandomCircuit("est", 12, 120, 8, 3)
	locked, err := statsat.LockRLL(orig, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	orc := statsat.NewNoisyOracle(locked.Circuit, locked.Key, 0.02, 5)
	est := statsat.EstimateGateError(locked.Circuit, orc, statsat.EstimateOptions{
		NProbe: 6, Ns: 100, NKeys: 3, Seed: 2,
	})
	if est <= 0 || est > 0.25 {
		t.Errorf("estimate %v out of range", est)
	}
	if qs := orc.Queries(); qs == 0 {
		t.Error("estimator did not query the oracle")
	}
}

// TestEstimateGateErrorPinned pins the §V-E estimate on twelve chips
// to the values the estimator gave when it built a fresh simulated
// chip for every probe and key. Its chips are now reset to streams
// seeded once, and every stream, so every estimate, must be the same.
func TestEstimateGateErrorPinned(t *testing.T) {
	want := map[[2]float64]float64{ // {lock seed, chip eps}: estimate
		{1, 0.01}: 0.006938893903907228, {1, 0.03}: 0.026469779601696886,
		{2, 0.01}: 0.005551115123125783, {2, 0.03}: 0.026469779601696886,
		{3, 0.01}: 0.004440892098500626, {3, 0.03}: 0.02117582368135751,
		{4, 0.01}: 0.006938893903907228, {4, 0.03}: 0.026469779601696886,
		{5, 0.01}: 0.005551115123125783, {5, 0.03}: 0.02117582368135751,
		{6, 0.01}: 0.005551115123125783, {6, 0.03}: 0.026469779601696886,
	}
	b, _ := statsat.BenchmarkByName("c3540")
	orig := b.BuildScaled(8)
	for seed := int64(1); seed <= 6; seed++ {
		l, err := statsat.LockRLL(orig, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.01, 0.03} {
			orc := statsat.NewNoisyOracle(l.Circuit, l.Key, eps, seed*7)
			got := statsat.EstimateGateError(l.Circuit, orc, statsat.EstimateOptions{Seed: seed, NProbe: 8, NKeys: 3})
			if w := want[[2]float64{float64(seed), eps}]; got != w {
				t.Errorf("lock seed %d, eps %v: estimate %v, want %v", seed, eps, got, w)
			}
		}
	}
}

func TestFacadeVerilogAndSimplify(t *testing.T) {
	orig := statsat.RandomCircuit("v", 8, 60, 5, 9)
	text := statsat.FormatVerilog(orig)
	back, err := statsat.ParseVerilogString(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	simp, err := statsat.Simplify(back)
	if err != nil {
		t.Fatal(err)
	}
	if simp.NumLogicGates() > back.NumLogicGates() {
		t.Error("simplify grew the netlist")
	}
	var sb strings.Builder
	if err := statsat.WriteVerilog(&sb, simp); err != nil {
		t.Fatal(err)
	}
	if _, err := statsat.ParseVerilog(strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExtraLocks(t *testing.T) {
	orig := statsat.RandomCircuit("l", 16, 150, 8, 10)
	for _, mk := range []struct {
		name string
		f    func() (*statsat.Locked, error)
	}{
		{"rll-deep", func() (*statsat.Locked, error) { return statsat.LockRLLDeep(orig, 8, 1) }},
		{"antisat", func() (*statsat.Locked, error) { return statsat.LockAntiSAT(orig, 8, 2) }},
		{"sarlock", func() (*statsat.Locked, error) { return statsat.LockSARLock(orig, 8, 3) }},
	} {
		l, err := mk.f()
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		eq, err := statsat.EquivalentToOriginal(l.Circuit, l.Key, orig)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("%s: correct key fails", mk.name)
		}
	}
}

func TestFacadeAppSAT(t *testing.T) {
	orig := statsat.RandomCircuit("a", 10, 80, 6, 11)
	l, err := statsat.LockRLL(orig, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := statsat.AppSAT(l.Circuit, statsat.NewOracle(l.Circuit, l.Key), statsat.AppSATOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Key == nil {
		t.Fatal("AppSAT failed on deterministic oracle")
	}
	if eq, _ := statsat.KeysEquivalent(l.Circuit, res.Key, l.Key); !eq {
		t.Error("AppSAT key wrong")
	}
}

func TestFacadeCircuitBuilding(t *testing.T) {
	c := statsat.NewCircuit("manual")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(statsat.Nand, "g", a, b)
	c.AddOutput(g, "y")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if out := c.Eval([]bool{true, true}, nil, nil); out[0] != false {
		t.Error("NAND(1,1) != 0")
	}
	if statsat.SignalProbs(statsat.NewOracle(c, nil), []bool{true, true}, 5)[0] != 0 {
		t.Error("signal prob of constant-0 output should be 0")
	}
}

// TestFacadeJournalDiverged resumes a recorded noisy chip through the
// facade twice: from its own tape, which replays to the end without
// diverging, and from a copy whose first record asks for another
// input, which the journal must report through Diverged.
func TestFacadeJournalDiverged(t *testing.T) {
	locked, err := statsat.LockRLL(statsat.C17(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() statsat.Oracle { return statsat.NewNoisyOracle(locked.Circuit, locked.Key, 0.05, 3) }
	x := make([]bool, locked.Circuit.NumPIs())
	run := func(o statsat.Oracle) {
		for i := 0; i < 4; i++ {
			x[0] = i%2 == 1
			statsat.SignalProbs(o, x, 100)
		}
	}
	var tape []statsat.TapeRecord
	run(statsat.NewJournalOracle(fresh(), nil, func(r statsat.TapeRecord) { tape = append(tape, r) }))
	if len(tape) == 0 {
		t.Fatal("the recording journal taped nothing")
	}
	same := statsat.NewJournalOracle(fresh(), tape, nil)
	run(same)
	if same.Diverged() {
		t.Error("a journal replaying its own tape reports divergence")
	}
	bad := append([]statsat.TapeRecord(nil), tape...)
	flipped := []byte(bad[0].X)
	flipped[0] ^= '0' ^ '1'
	bad[0].X = string(flipped)
	j := statsat.NewJournalOracle(fresh(), bad, nil)
	run(j)
	if !j.Diverged() {
		t.Error("a journal whose tape asks for another input does not report divergence")
	}
}
