package exp

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"statsat/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestProfileByName(t *testing.T) {
	for _, n := range []string{"paper", "quick", "smoke"} {
		p, ok := ProfileByName(n)
		if !ok || p.Name != n {
			t.Errorf("ProfileByName(%q) = %+v, %v", n, p, ok)
		}
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Error("unknown profile resolved")
	}
}

func TestEpsList(t *testing.T) {
	p := Smoke // EpsFactor 2.5, EpsPoints 2
	got := p.epsList([]float64{1.0, 2.0, 3.0})
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	if got[0] != 0.025 || got[1] != 0.05 {
		t.Errorf("epsList = %v", got)
	}
	q := Paper
	if n := len(q.epsList([]float64{1, 2, 3, 4})); n != 4 {
		t.Errorf("paper profile truncated eps points: %d", n)
	}
}

func TestEpsLabel(t *testing.T) {
	if epsLabel(0) != "A" || epsLabel(3) != "D" {
		t.Error("labels wrong")
	}
}

func TestBuildWorkloadLockChoices(t *testing.T) {
	cases := map[string]string{
		"ex1010": "SLL",
		"c880":   "RLL",
		"c3540":  "SFLL-HD^0",
	}
	for name, wantLock := range cases {
		w, err := BuildWorkload(Smoke, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.LockName() != wantLock {
			t.Errorf("%s locked with %s, want %s", name, w.LockName(), wantLock)
		}
		if w.Locked.Circuit.NumKeys() == 0 {
			t.Errorf("%s: no key inputs", name)
		}
	}
	if _, err := BuildWorkload(Smoke, "nonexistent"); err == nil {
		t.Error("want error for unknown benchmark")
	}
}

func TestTableI(t *testing.T) {
	var buf bytes.Buffer
	rows := TableI(context.Background(), Smoke, &buf)
	if len(rows) != 7 {
		t.Fatalf("TableI rows = %d", len(rows))
	}
	out := buf.String()
	for _, name := range []string{"c3540", "c7552", "ex1010", "seq", "b14", "b15", "c880"} {
		if !strings.Contains(out, name) {
			t.Errorf("output missing %s", name)
		}
	}
}

func TestTableIPaperDimensions(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size build in -short mode")
	}
	r, err := ProfileBench(Paper, "c7552")
	if err != nil {
		t.Fatal(err)
	}
	if r.Inputs != 207 || r.Gates != 3512 || r.Outputs != 108 {
		t.Errorf("paper-profile c7552 = %+v, want published dims", r)
	}
}

// TestTableIISmoke runs the flagship experiment end-to-end on the
// smallest profile and asserts the paper's qualitative claims.
func TestTableIISmoke(t *testing.T) {
	p := Smoke
	// Restrict to two circuits for test runtime.
	old := tableIICircuits
	tableIICircuits = []string{"c3540", "ex1010"}
	defer func() { tableIICircuits = old }()

	var buf bytes.Buffer
	rows, err := TableII(context.Background(), p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 circuits × EpsPoints(2)
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	correct := 0
	for _, r := range rows {
		if r.AvgBER < 0 || r.AvgBER > 1 || r.MaxBER < r.AvgBER {
			t.Errorf("%s %s: BER stats inconsistent: %+v", r.Bench, r.Label, r)
		}
		if r.NumKeys > r.NInst {
			t.Errorf("%s: more keys (%d) than instances (%d)", r.Bench, r.NumKeys, r.NInst)
		}
		if r.Correct {
			correct++
			if r.HDBest > 0.3 {
				t.Errorf("%s: correct key with huge HD %.4f", r.Bench, r.HDBest)
			}
		}
	}
	if correct == 0 {
		t.Error("StatSAT never found the correct key in the smoke Table II")
	}
	// Higher eps within a circuit needs >= as many instances (trend).
	for i := 1; i < len(rows); i++ {
		if rows[i].Bench == rows[i-1].Bench && rows[i].Correct && rows[i-1].Correct {
			if rows[i].NInst < rows[i-1].NInst {
				t.Logf("note: N_inst dipped (%d → %d) between eps points on %s — tolerated (stochastic)",
					rows[i-1].NInst, rows[i].NInst, rows[i].Bench)
			}
		}
	}
	t.Logf("\n%s", buf.String())
}

func TestTableIIISmoke(t *testing.T) {
	old := tableIIICircuits
	tableIIICircuits = []string{"c3540"}
	defer func() { tableIIICircuits = old }()
	p := Smoke
	p.MaxNInst = 4
	var buf bytes.Buffer
	rows, err := TableIII(context.Background(), p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // N_inst 1,2,4
		t.Fatalf("rows = %d", len(rows))
	}
	anyKey := false
	for _, r := range rows {
		if r.NumKeys > 0 {
			anyKey = true
			if r.HDBest < 0 || r.FMBest < r.HDBest-1e-9 {
				t.Errorf("metric inconsistency: %+v (FM must be >= HD)", r)
			}
		}
	}
	if !anyKey {
		t.Error("no N_inst point produced a key")
	}
	t.Logf("\n%s", buf.String())
}

func TestTableIVSmoke(t *testing.T) {
	old := tableIVCircuits
	tableIVCircuits = []string{"c3540"}
	defer func() { tableIVCircuits = old }()
	var buf bytes.Buffer
	rows, err := TableIV(context.Background(), Smoke, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.EpsEstPct <= 0 {
			t.Errorf("estimate missing: %+v", r)
		}
		// Paper: the estimate undershoots the true value; allow some
		// slack but reject wild overestimates.
		if r.EpsEstPct > 3*r.EpsPct {
			t.Errorf("estimate %.3f%% wildly above true %.2f%%", r.EpsEstPct, r.EpsPct)
		}
	}
	t.Logf("\n%s", buf.String())
}

func TestTableVSmoke(t *testing.T) {
	old := tableVWorkloads
	tableVWorkloads = tableVWorkloads[:1] // c880 only
	defer func() { tableVWorkloads = old }()
	var buf bytes.Buffer
	rows, err := TableV(context.Background(), Smoke, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // EpsPoints=2
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.PSATSuccess > r.Runs {
			t.Errorf("PSAT successes %d exceed runs %d", r.PSATSuccess, r.Runs)
		}
	}
	// The paper's claim: StatSAT succeeds where PSAT degrades. At the
	// highest eps point StatSAT must still have found the correct key.
	lastRow := rows[len(rows)-1]
	if !lastRow.StatSATFound {
		t.Errorf("StatSAT failed at eps=%.2f%% where the paper claims success", lastRow.EpsPct)
	}
	t.Logf("\n%s", buf.String())
}

func TestFig4And5FromSharedRuns(t *testing.T) {
	old := tableIICircuits
	tableIICircuits = []string{"ex1010"}
	defer func() { tableIICircuits = old }()
	var buf bytes.Buffer
	f4, err := Fig4(context.Background(), Smoke, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(f4) != 2 {
		t.Fatalf("fig4 rows = %d", len(f4))
	}
	for _, r := range f4 {
		if r.StandardIters <= 0 {
			t.Errorf("standard SAT iterations missing: %+v", r)
		}
	}
	f5, err := Fig5(context.Background(), Smoke, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5) != len(f4) {
		t.Errorf("fig5 rows %d != fig4 rows %d", len(f5), len(f4))
	}
	for _, r := range f5 {
		if r.AttackSeconds < 0 || r.StdSeconds < 0 {
			t.Errorf("negative timing: %+v", r)
		}
	}
	t.Logf("\n%s", buf.String())
}

func TestFig6Smoke(t *testing.T) {
	old := tableIIICircuits
	tableIIICircuits = []string{"c3540"}
	defer func() { tableIIICircuits = old }()
	p := Smoke
	p.MaxNInst = 4
	var buf bytes.Buffer
	pts, err := Fig6(context.Background(), p, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no Fig6 points")
	}
	for _, pt := range pts {
		if pt.FMBest < 0 || pt.FMBest > 1 {
			t.Errorf("FM out of range: %+v", pt)
		}
	}
	t.Logf("\n%s", buf.String())
}

func TestAblationsSmoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Ablations(context.Background(), Smoke, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("ablation variants = %d", len(rows))
	}
	if rows[0].Variant != "full" {
		t.Errorf("first variant = %s", rows[0].Variant)
	}
	// The full variant must produce at least one key on this workload.
	if rows[0].NumKeys == 0 {
		t.Error("full StatSAT produced no key in ablation baseline")
	}
	// no-duplication can never fork.
	for _, r := range rows {
		if r.Variant == "no-duplication" && r.Forks > 0 {
			t.Errorf("N_inst=1 variant forked %d times", r.Forks)
		}
	}
	t.Logf("\n%s", buf.String())
}

func TestWriteCSV(t *testing.T) {
	rows := []TableVRow{
		{Bench: "c880", EpsPct: 2.5, Runs: 3, PSATSuccess: 2, StatSATFound: true},
		{Bench: "c880", EpsPct: 3.75, Runs: 3, PSATSuccess: 0, StatSATFound: true},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Bench,EpsPct,Runs,PSATSuccess,StatSATFound") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "c880,2.5,3,2,true") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, 42); err == nil {
		t.Error("want error for non-slice")
	}
	if err := WriteCSV(&buf, []int{1}); err == nil {
		t.Error("want error for non-struct elements")
	}
	if err := WriteCSV(&buf, []TableVRow{}); err != nil {
		t.Errorf("empty slice should be fine: %v", err)
	}
}

func TestBarRendering(t *testing.T) {
	if bar(0, 10, '#') != "" {
		t.Error("zero bar should be empty")
	}
	if len(bar(10, 10, '#')) != 24 {
		t.Errorf("full bar length = %d", len(bar(10, 10, '#')))
	}
	if len(bar(20, 10, '#')) != 24 {
		t.Error("bar must clamp")
	}
}

func TestDefenseSmoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Defense(context.Background(), Smoke, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// 2 variants × EpsPoints(2) points.
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		if rows[i].Variant != "RLL" || rows[i+1].Variant != "RLL-deep" {
			t.Errorf("variant ordering wrong at %d", i)
		}
	}
	t.Logf("\n%s", buf.String())
}

func TestSweepNsSmoke(t *testing.T) {
	var buf bytes.Buffer
	rows, err := SweepNs(context.Background(), Smoke, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if r.HDFloor <= 0 {
			t.Errorf("row %d: floor missing", i)
		}
		if i > 0 && r.Ns <= rows[i-1].Ns {
			t.Error("Ns not increasing")
		}
	}
	// The sampling floor must shrink with Ns (~1/sqrt trend).
	first, last := rows[0], rows[len(rows)-1]
	if last.HDFloor >= first.HDFloor {
		t.Errorf("floor did not shrink: %.4f -> %.4f", first.HDFloor, last.HDFloor)
	}
	t.Logf("\n%s", buf.String())
}
