package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"statsat"
	"statsat/internal/server"
	"statsat/internal/trace"
)

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	// A p99 of 999 samples has only 9 beyond it.
	if v, err := percentile(ramp(999), 99); err == nil {
		t.Fatalf("p99 of 999 samples = %v, want refusal", v)
	}
	if v, err := percentile(ramp(1000), 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 990", v, err)
	}
	if _, err := percentile(ramp(19), 50); err == nil {
		t.Fatal("p50 of 19 samples accepted, want refusal")
	}
	if v, err := percentile(ramp(20), 50); err != nil || v != 10 {
		t.Fatalf("p50 of 20 samples = %v, %v; want 10", v, err)
	}
	// Refused jobs enter as +Inf and rank slowest.
	s := ramp(1000)
	for i := 0; i < 11; i++ {
		s[i] = math.Inf(1)
	}
	if v, err := percentile(s, 99); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("p99 with 11 infinite samples = %v, %v; want +Inf", v, err)
	}
	for _, pct := range []int{0, 100} {
		if _, err := percentile(ramp(5000), pct); err == nil {
			t.Errorf("p%d accepted", pct)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// scripted is a clock the test advances by hand, in milliseconds.
type scripted struct{ ms int }

func (c *scripted) at(ms int) time.Time {
	return time.Unix(1000, 0).Add(time.Duration(ms) * time.Millisecond)
}
func (c *scripted) now() time.Time { return c.at(c.ms) }

func solverStats(conflicts, props, decisions int64) *trace.SolverStats {
	return &trace.SolverStats{Conflicts: conflicts, Propagations: props, Decisions: decisions}
}

func TestSpanAttribution(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		clk := &scripted{}
		s := &spans{clock: clk.now}
		emit := func(ms int, ev statsat.TraceEvent) {
			clk.ms = ms
			s.Emit(ev)
		}
		s.runJob(baseline, func() {
			// A DI iteration: solve 1-3, two oracle calls (3-5, 6-7), then
			// recording or DIP encoding until 10.
			ev := statsat.TraceEvent{Type: statsat.TraceIterStart}
			ev.Solver = solverStats(10, 100, 5)
			emit(1, ev)
			s.oracleCall(clk.at(3), clk.at(5), 512)
			s.oracleCall(clk.at(6), clk.at(7), 64)
			emit(8, statsat.TraceEvent{Type: statsat.TraceDIPFound, DIP: &trace.DIPInfo{Candidates: 40}})
			ev = statsat.TraceEvent{Type: statsat.TraceIterEnd, Status: "dip"}
			ev.Solver = solverStats(12, 150, 9)
			emit(10, ev)
			// A repeat iteration with a fork, 11-14.
			emit(11, statsat.TraceEvent{Type: statsat.TraceIterStart})
			emit(12, statsat.TraceEvent{Type: statsat.TraceFork})
			emit(14, statsat.TraceEvent{Type: statsat.TraceIterEnd, Status: "repeat"})
			// The final UNSAT iteration, 15-20.
			emit(15, statsat.TraceEvent{Type: statsat.TraceIterStart})
			emit(20, statsat.TraceEvent{Type: statsat.TraceIterEnd, Status: "unsat"})
			// Evaluation 21-30 with one chip call 22-25.
			emit(21, statsat.TraceEvent{Type: statsat.TraceEvalStart})
			s.oracleCall(clk.at(22), clk.at(25), 1000)
			emit(30, statsat.TraceEvent{Type: statsat.TraceEvalEnd})
			clk.ms = 31
		})
		l := s.layers
		ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
		post := l.record
		if baseline {
			post = l.install
			if l.record != 0 {
				t.Errorf("baseline job booked core.record_s %v", l.record)
			}
		} else if l.install != 0 {
			t.Errorf("StatSAT job booked attack.install_s %v", l.install)
		}
		for _, c := range []struct {
			name      string
			got, want time.Duration
		}{
			{"total", l.total, ms(31)},
			{"solve", l.solve, ms(2)},
			{"oracle.attack", l.oracleAttack, ms(3)},
			{"record/install", post, ms(4)}, // 3..10 minus 3 inside calls
			{"repeat", l.repeat, ms(3)},
			{"converge", l.converge, ms(5)},
			{"eval", l.eval, ms(9)},
			{"oracle.eval", l.oracleEval, ms(3)},
			{"covered", l.covered(), ms(26)}, // 5 ms between spans
		} {
			if c.got != c.want {
				t.Errorf("baseline=%v %s = %v, want %v", baseline, c.name, c.got, c.want)
			}
		}
		if l.dipIters != 1 || l.repeatIters != 1 || l.unsatIters != 1 {
			t.Errorf("iterations dip/repeat/unsat = %d/%d/%d, want 1/1/1", l.dipIters, l.repeatIters, l.unsatIters)
		}
		if l.conflicts != 2 || l.propagations != 50 || l.decisions != 4 {
			t.Errorf("solver deltas = %d/%d/%d, want 2/50/4", l.conflicts, l.propagations, l.decisions)
		}
		if l.candidates != 40 || l.forks != 1 || l.calls != 3 || l.attackQueries != 576 || l.evalQueries != 1000 {
			t.Errorf("counters = %+v", l)
		}
	}
}

func TestTimedOracleKeepsSamplingPath(t *testing.T) {
	lk, err := statsat.LockRLL(statsat.C17(), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := []bool{true, false, true, true, false}
	rec := &spans{clock: now}

	// A blocking chip stays blocking: same samples, same noise stream.
	bare := statsat.NewNoisyOracle(lk.Circuit, lk.Key, 0.05, 7)
	timed := timeOracle(statsat.NewNoisyOracle(lk.Circuit, lk.Key, 0.05, 7), rec)
	if _, ok := timed.(blockSampler); !ok {
		t.Fatal("wrapped noisy chip lost QueryBlock/BlockWords")
	}
	batch, ok := timed.(interface{ QueryBatch([]bool) []uint64 })
	if !ok {
		t.Fatal("wrapped noisy chip lost QueryBatch")
	}
	for i := 0; i < 3; i++ {
		want := statsat.SignalProbs(bare, x, 700)
		got := statsat.SignalProbs(timed, x, 700)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("round %d output %d: wrapped chip sampled %v, bare chip %v", i, j, got[j], want[j])
			}
		}
	}
	w1 := append([]uint64(nil), batch.QueryBatch(x)...)
	w2 := bare.(blockSampler).QueryBlock(x, 1)
	for j := range w1 {
		if w1[j] != w2[j] {
			t.Fatalf("QueryBatch word %d = %x, one-word block %x", j, w1[j], w2[j])
		}
	}
	if timed.Queries() != bare.Queries() || rec.layers.attackQueries != bare.Queries() {
		t.Fatalf("queries: wrapped %d, booked %d, bare %d", timed.Queries(), rec.layers.attackQueries, bare.Queries())
	}

	// A scalar chip stays scalar.
	det := timeOracle(statsat.NewOracle(lk.Circuit, lk.Key), rec)
	if _, ok := det.(blockSampler); ok {
		t.Fatal("wrapped exact chip gained a blocked path")
	}
	if _, ok := det.(interface{ QueryBatch([]bool) []uint64 }); ok {
		t.Fatal("wrapped exact chip gained QueryBatch")
	}
	calls := rec.layers.calls
	det.Query(x)
	if rec.layers.calls != calls+1 {
		t.Fatal("scalar query not booked")
	}
}

func TestCPUClock(t *testing.T) {
	c := cpuSeconds(func() {
		deadline := now().Add(30 * time.Millisecond)
		x := 1.0
		for now().Before(deadline) {
			x = math.Sqrt(x + 1)
		}
		_ = x
	})
	// A busy loop is on-CPU nearly all of its wall time; allow for a
	// loaded host.
	if c < 0.003 || c > 1 {
		t.Fatalf("busy 30ms loop took %v CPU seconds", c)
	}
	if d := cpuSeconds(func() {}); d < 0 || d > 0.01 {
		t.Fatalf("empty function took %v CPU seconds", d)
	}
}

func TestProcStat(t *testing.T) {
	a, err := parseProcStat(strings.NewReader("intr 5\ncpu  100 5 50 1000 10 0 5 30 7 0\ncpu0 50 2 25 500 5 0 2 15 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1200 || a.steal != 30 {
		t.Fatalf("parsed %+v, want total 1200 (guest excluded) steal 30", a)
	}
	b := cpuTicks{total: a.total + 200, steal: a.steal + 20}
	if f := stealFrac(a, b); f != 0.1 {
		t.Fatalf("steal share %v, want 0.1", f)
	}
	if f := stealFrac(b, a); f != 0 {
		t.Fatalf("backwards steal share %v, want 0", f)
	}
	for _, bad := range []string{"cpu 1 2 3\n", "cpu0 1 2 3 4 5 6 7 8\n", "cpu 1 2 3 4 5 6 7 x\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parsed %q without error", bad)
		}
	}
	if _, ok := readProcStat(); !ok {
		t.Skip("no /proc/stat on this host")
	}
}

func TestSplitLatency(t *testing.T) {
	at := func(ms int) time.Time { return time.Date(2026, 1, 2, 3, 4, 5, ms*int(time.Millisecond), time.UTC) }
	st := server.Status{
		ID:       "j000001",
		Created:  at(100).Format(time.RFC3339Nano),
		Started:  at(200).Format(time.RFC3339Nano),
		Finished: at(500).Format(time.RFC3339Nano),
	}
	submit, queue, run, deliver, err := splitLatency(at(90), at(530), st)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"submit", submit, 0.010}, {"queue", queue, 0.100}, {"run", run, 0.300}, {"deliver", deliver, 0.030}} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	bad := st
	bad.Started = ""
	if _, _, _, _, err := splitLatency(at(90), at(530), bad); err == nil {
		t.Error("missing started timestamp accepted")
	}
	bad = st
	bad.Finished = at(150).Format(time.RFC3339Nano)
	if _, _, _, _, err := splitLatency(at(90), at(530), bad); err == nil {
		t.Error("finished before started accepted")
	}
}

func TestServiceJobMix(t *testing.T) {
	for k := 0; k < 8; k++ {
		sp := svcSpec(5, k)
		if sat := k%4 == 3; sat != (sp.Attack == "sat") || sat != (sp.Eps == 0) {
			t.Errorf("job %d: attack %s at eps %v", k, sp.Attack, sp.Eps)
		}
		if sp.Lock != "rll" || sp.KeyBits != 4 {
			t.Errorf("job %d: lock %s-%d", k, sp.Lock, sp.KeyBits)
		}
	}
	if svcSpec(5, 2) != svcSpec(5, 2) || svcSpec(5, 2).LockSeed == svcSpec(6, 2).LockSeed {
		t.Error("job specs are not a function of (seed, k)")
	}
}

func TestDerive(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 3; seed++ {
		for i := int64(0); i < 10; i++ {
			for _, tag := range []int64{tagLock, tagOracle, tagAttack, tagEval} {
				v := derive(seed, i, tag)
				if v < 0 || seen[v] {
					t.Fatalf("derive(%d, %d, %d) = %d repeats or is negative", seed, i, tag, v)
				}
				seen[v] = true
				if derive(seed, i, tag) != v {
					t.Fatal("derive is not deterministic")
				}
			}
		}
	}
}

func TestEncodeResult(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}, {"b", "count"}}
	out := &outcomeSet{correct: true, attempted: 3, metrics: map[string]float64{"a_s": 1.25, "b": 7}}
	line, err := encodeResult(out, defs)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil || len(got) != 4 {
		t.Fatalf("result %s: want exactly correct/attempted/failed/metrics (%v)", line, err)
	}
	for name, m := range map[string]map[string]float64{
		"missing":    {"a_s": 1},
		"undeclared": {"a_s": 1, "b": 2, "c": 3},
		"not finite": {"a_s": math.NaN(), "b": 2},
	} {
		if _, err := encodeResult(&outcomeSet{attempted: 1, metrics: m}, defs); err == nil {
			t.Errorf("%s metric accepted", name)
		}
	}
	if _, err := encodeResult(&outcomeSet{metrics: out.metrics}, defs); err == nil {
		t.Error("zero attempted jobs accepted")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	for _, c := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
