package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"statsat/internal/sat"
)

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(NewJSONL(&buf))
	e.Emit(Event{
		Type: AttackStart, Attack: "statsat", Instance: -1,
		Circuit: &CircuitInfo{Name: "c17", PIs: 5, POs: 2, Keys: 4},
		Opts:    &OptionsInfo{Ns: 500, NInst: 4, ULambda: 0.25, ELambda: 0.30},
	})
	e.Emit(Event{
		Type: DIPFound, Instance: 0, Iter: 1,
		DIP: &DIPInfo{Index: 0, X: "01011", Y: "1x", Outputs: 2, Specified: 1, Candidates: 8},
	})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first, second Event
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if first.Type != AttackStart || first.Seq != 1 || first.Instance != -1 {
		t.Errorf("first = %+v", first)
	}
	if first.Circuit == nil || first.Circuit.Keys != 4 {
		t.Errorf("circuit payload lost: %+v", first.Circuit)
	}
	if second.Type != DIPFound || second.Seq != 2 || second.DIP == nil || second.DIP.Y != "1x" {
		t.Errorf("second = %+v", second)
	}
	if second.TNs < first.TNs {
		t.Errorf("timestamps not monotonic: %d then %d", first.TNs, second.TNs)
	}
	// Unused payloads must be omitted from the wire format entirely.
	if strings.Contains(lines[1], "totals") || strings.Contains(lines[0], "fork") {
		t.Errorf("empty payloads serialised: %s", lines[1])
	}
}

func TestNilEmitterDropsEverything(t *testing.T) {
	var e *Emitter
	if e.Enabled() {
		t.Error("nil emitter reports enabled")
	}
	e.Emit(Event{Type: AttackStart}) // must not panic
	if NewEmitter(nil) != nil {
		t.Error("NewEmitter(nil) should return nil")
	}
}

// TestConcurrentEmission drives one emitter from many goroutines, as
// StatSAT's key-scoring workers do, and checks that the trace keeps a
// total order: every event lands intact with a unique sequence number.
// Run with -race to check the emission path for data races.
func TestConcurrentEmission(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder()
	e := NewEmitter(Multi(NewJSONL(&buf), rec))
	const workers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e.Emit(Event{Type: IterStart, Instance: w, Iter: i + 1,
					Solver: &SolverStats{Conflicts: int64(i)}})
			}
		}(w)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != workers*each {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), workers*each)
	}
	seen := make(map[int64]bool)
	for _, ln := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("corrupt line %q: %v", ln, err)
		}
		if ev.Seq < 1 || ev.Seq > int64(workers*each) || seen[ev.Seq] {
			t.Fatalf("bad/duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
	if got := rec.Count(IterStart); got != workers*each {
		t.Errorf("recorder saw %d events, want %d", got, workers*each)
	}
}

func TestMultiFiltersNil(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of nothing should be nil (tracing off)")
	}
	rec := NewRecorder()
	if Multi(nil, rec) != Tracer(rec) {
		t.Error("Multi with one live sink should return it directly")
	}
	m := Multi(rec, NewRecorder())
	m.Emit(Event{Type: Fork})
	if rec.Count(Fork) != 1 {
		t.Error("multi did not forward")
	}
}

func TestSolverSnapshot(t *testing.T) {
	s := sat.New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(sat.PosLit(a), sat.PosLit(b))
	s.AddClause(sat.NegLit(a), sat.PosLit(b))
	if s.Solve() != sat.Sat {
		t.Fatal("trivial formula unsat")
	}
	st := SolverSnapshot(s)
	if st.Vars != 2 || st.Clauses != 2 {
		t.Errorf("snapshot size wrong: %+v", st)
	}
	if st.Solves != 1 {
		t.Errorf("solves = %d, want 1", st.Solves)
	}
}

func TestEventStringAllTypes(t *testing.T) {
	events := []Event{
		{Type: AttackStart, Attack: "statsat", Instance: -1,
			Circuit: &CircuitInfo{Name: "c880", PIs: 60, POs: 26, Keys: 16}},
		{Type: IterStart, Instance: 0, Iter: 3, Solver: &SolverStats{Vars: 10}},
		{Type: IterEnd, Instance: 0, Iter: 3, Status: "dip", Solver: &SolverStats{}},
		{Type: DIPFound, Instance: 0, Iter: 3, DIP: &DIPInfo{X: "0", Y: "x", Outputs: 1}},
		{Type: BitsGated, Instance: 0, Gating: &GatingInfo{GatedU: []int{1}}},
		{Type: Fork, Instance: 0, Fork: &ForkInfo{Child: 1, Bit: 2, U: 0.4, E: 0.1}},
		{Type: ForceProceed, Instance: 0, Fork: &ForkInfo{Bit: 2, E: 0.1}},
		{Type: InstanceDead, Instance: 1, Key: &KeyInfo{Iterations: 5, DIPs: 4}},
		{Type: KeyAccepted, Instance: 0, Key: &KeyInfo{Key: "1010", Iterations: 9, DIPs: 7}},
		{Type: AttackEnd, Instance: -1, Totals: &TotalsInfo{Keys: 1, Iterations: 9}},
		{Type: EvalStart, Instance: -1, Eval: &EvalInfo{Keys: 1, NEval: 100}},
		{Type: KeyScored, Instance: 0, Key: &KeyInfo{Key: "1010"}, Score: &ScoreInfo{FM: 0.01, HD: 0.02}},
		{Type: EvalEnd, Instance: -1, Score: &ScoreInfo{}, Eval: &EvalInfo{Keys: 1}},
	}
	var buf bytes.Buffer
	text := NewText(&buf)
	for _, ev := range events {
		s := ev.String()
		if !strings.Contains(s, string(ev.Type)) {
			t.Errorf("String() for %s lacks the type name: %q", ev.Type, s)
		}
		text.Emit(ev)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != len(events) {
		t.Errorf("text sink wrote %d lines, want %d", got, len(events))
	}
}
