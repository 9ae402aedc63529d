package oracle

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
)

// journalFixture builds the c17 benchmark with a fixed key and returns
// a fresh noisy oracle over it.
func journalFixture(t *testing.T) (*circuit.Circuit, []bool, func() *Probabilistic) {
	t.Helper()
	c := gen.C17()
	key := make([]bool, c.NumKeys())
	return c, key, func() *Probabilistic {
		return NewProbabilistic(c, key, 0.05, 42)
	}
}

// drive performs a deterministic mixed workload (scalar, one-word
// block, SignalProbs) against o and returns a digest of every answer.
func drive(t *testing.T, o Oracle, nin int, upto int) [][]bool {
	t.Helper()
	ctx := context.Background()
	var out [][]bool
	x := make([]bool, nin)
	for i := 0; i < upto; i++ {
		for j := range x {
			x[j] = (i>>uint(j%8))&1 == 1
		}
		switch i % 3 {
		case 0:
			out = append(out, append([]bool(nil), o.Query(x)...))
		case 1:
			p := SignalProbs(ctx, o, x, 130)
			row := make([]bool, len(p))
			for j, v := range p {
				row[j] = v > 0.5
			}
			out = append(out, row)
		case 2:
			if blq, wmax := Blocks(o); wmax > 0 {
				w := blq.QueryBlock(x, 1)
				row := make([]bool, len(w))
				for j, v := range w {
					row[j] = v&1 == 1
				}
				out = append(out, row)
			}
		}
	}
	return out
}

func sameAnswers(t *testing.T, a, b [][]bool) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("answer counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("answer %d bit %d differs", i, j)
			}
		}
	}
}

// TestJournalResumeEquivalence is the resume-determinism kernel: a
// recorded run interrupted after k interactions, resumed on a FRESH
// oracle with the recorded tape prefix, must produce exactly the
// answers — and exactly the counters — of the uninterrupted run, for
// every cut point k. The tape is fed twice: as recorded, and as older
// versions wrote it, with a cumulative batch-query count under "bq" on
// every record, which a lenient JSON decode must drop without
// changing the replay.
func TestJournalResumeEquivalence(t *testing.T) {
	_, _, fresh := journalFixture(t)
	const steps = 12
	nin := fresh().NumInputs()

	// Uninterrupted control: record the full tape and answers.
	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	want := drive(t, ctrl, nin, steps)
	wantQ, wantD := ctrl.Queries(), ctrl.NoiseDraws()
	if wantQ == 0 || wantD == 0 {
		t.Fatalf("control consumed nothing: q=%d d=%d", wantQ, wantD)
	}

	tapes := []struct {
		name string
		tape []TapeRecord
	}{
		{"recorded", tape},
		{"with bq", withBatchCounts(t, tape)},
	}
	for _, tc := range tapes {
		for cut := 0; cut <= len(tc.tape); cut += 1 + len(tc.tape)/16 {
			prefix := tc.tape[:cut]
			var resumedTail []TapeRecord
			res := NewJournal(fresh(), prefix, func(r TapeRecord) { resumedTail = append(resumedTail, r) })
			got := drive(t, res, nin, steps)
			sameAnswers(t, want, got)
			if q := res.Queries(); q != wantQ {
				t.Fatalf("%s cut %d: queries %d, want %d", tc.name, cut, q, wantQ)
			}
			if d := res.NoiseDraws(); d != wantD {
				t.Fatalf("%s cut %d: noise draws %d, want %d", tc.name, cut, d, wantD)
			}
			// The resumed run's recorded tail must extend the prefix
			// into the same full tape the control recorded.
			if len(prefix)+len(resumedTail) != len(tape) {
				t.Fatalf("%s cut %d: prefix %d + tail %d != full tape %d",
					tc.name, cut, len(prefix), len(resumedTail), len(tape))
			}
			for i, r := range resumedTail {
				full := tape[cut+i]
				if r.Kind != full.Kind || r.X != full.X || r.Y != full.Y ||
					r.Queries != full.Queries || r.Draws != full.Draws {
					t.Fatalf("%s cut %d: resumed tail record %d differs from control", tc.name, cut, i)
				}
			}
		}
	}
}

// TestJournalResumeAcrossRefills resumes a tape at every record of a
// run long enough that its noise stream crosses several 607-draw
// refills of the generator's block. Each resume skips a fresh chip to
// the record's draw count, from inside a block or across one or more,
// and must then answer and record exactly what the uninterrupted run
// did.
func TestJournalResumeAcrossRefills(t *testing.T) {
	_, _, fresh := journalFixture(t)
	const steps = 150
	nin := fresh().NumInputs()
	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	want := drive(t, ctrl, nin, steps)
	blocks := map[uint64]bool{}
	for _, r := range tape {
		blocks[r.Draws/607] = true
	}
	if len(blocks) < 5 {
		t.Fatalf("the tape's draw counts span %d refill blocks, want at least 5", len(blocks))
	}
	for cut := 1; cut <= len(tape); cut++ {
		var tail []TapeRecord
		res := NewJournal(fresh(), tape[:cut], func(r TapeRecord) { tail = append(tail, r) })
		sameAnswers(t, want, drive(t, res, nin, steps))
		if len(tail) != len(tape)-cut {
			t.Fatalf("cut %d: recorded %d records after the tape, want %d", cut, len(tail), len(tape)-cut)
		}
		for i, r := range tail {
			if full := tape[cut+i]; r.Draws != full.Draws || r.Y != full.Y || fmt.Sprint(r.W) != fmt.Sprint(full.W) {
				t.Fatalf("cut %d (resumed at draw %d): record %d differs from the uninterrupted run", cut, tape[cut-1].Draws, cut+i)
			}
		}
	}
}

// withBatchCounts re-encodes tape the way older versions wrote it —
// each record carrying "bq", the cumulative count of block-drawn
// queries — and decodes it back, as the server's WAL replay does.
func withBatchCounts(t *testing.T, tape []TapeRecord) []TapeRecord {
	t.Helper()
	out := make([]TapeRecord, len(tape))
	var bq int64
	for i, r := range tape {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind == "b" {
			bq += int64(r.Words) * circuit.BatchLanes
		}
		raw = append(raw[:len(raw)-1], fmt.Sprintf(`,"bq":%d}`, bq)...)
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestJournalScalarOracle: a journal over a Deterministic oracle must
// stay scalar-only (zero BlockWords, so Blocks rejects it) and still
// replay correctly.
func TestJournalScalarOracle(t *testing.T) {
	c, key, _ := journalFixture(t)
	fresh := func() Oracle { return NewDeterministic(c, key) }

	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	if _, w := Blocks(ctrl); w != 0 {
		t.Fatalf("journal over a scalar oracle reports %d block words, want 0", w)
	}
	want := drive(t, ctrl, ctrl.NumInputs(), 9)

	res := NewJournal(fresh(), tape[:len(tape)/2], nil)
	got := drive(t, res, res.NumInputs(), 9)
	sameAnswers(t, want, got)
	if res.Queries() != ctrl.Queries() {
		t.Fatalf("queries %d, want %d", res.Queries(), ctrl.Queries())
	}
}

// TestJournalDivergenceFreezes: serving a mismatching input mid-replay
// must drop the tape, mark the journal diverged, stop recording, and
// keep serving the live oracle.
func TestJournalDivergenceFreezes(t *testing.T) {
	_, _, fresh := journalFixture(t)
	o := fresh()
	x0 := make([]bool, o.NumInputs())
	x1 := make([]bool, o.NumInputs())
	x1[0] = true

	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	ctrl.Query(x0)
	ctrl.Query(x0)

	recorded := 0
	res := NewJournal(fresh(), tape, func(TapeRecord) { recorded++ })
	res.Query(x0) // matches record 0
	y := res.Query(x1)
	if len(y) != o.NumOutputs() {
		t.Fatalf("diverged query returned %d bits", len(y))
	}
	if !res.Diverged() {
		t.Fatal("mismatching input did not mark the journal diverged")
	}
	if recorded != 0 {
		t.Fatalf("diverged journal recorded %d new records; the tape must freeze", recorded)
	}
	res.Query(x0)
	if recorded != 0 {
		t.Fatal("journal resumed recording after divergence")
	}
}

func TestValidateTape(t *testing.T) {
	c, key, fresh := journalFixture(t)
	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	drive(t, ctrl, ctrl.NumInputs(), 6)
	if err := ValidateTape(tape, fresh()); err != nil {
		t.Fatalf("valid tape rejected: %v", err)
	}
	if err := ValidateTape(tape, NewDeterministic(c, key)); err == nil {
		t.Fatal("block records accepted by a scalar-only oracle")
	}
	bad := append([]TapeRecord(nil), tape...)
	bad[0].X += "0"
	if err := ValidateTape(bad, fresh()); err == nil {
		t.Fatal("wrong input width accepted")
	}
	bad = append([]TapeRecord(nil), tape...)
	bad[len(bad)-1].Queries = 0
	if err := ValidateTape(bad, fresh()); err == nil {
		t.Fatal("non-monotone counters accepted")
	}
	bad = append([]TapeRecord(nil), tape...)
	bad[0].Kind = "zz"
	if err := ValidateTape(bad, fresh()); err == nil {
		t.Fatal("unknown record kind accepted")
	}
	bad = append([]TapeRecord(nil), tape...)
	bad[0].X = "?" + bad[0].X[1:]
	if err := ValidateTape(bad, fresh()); err == nil {
		t.Fatal("non-binary input bits accepted")
	}
	bad = append([]TapeRecord(nil), tape...)
	if bad[0].Kind != "q" {
		t.Fatalf("record 0 is %q; the output-bit case needs a scalar query", bad[0].Kind)
	}
	bad[0].Y = "?" + bad[0].Y[1:]
	if err := ValidateTape(bad, fresh()); err == nil {
		t.Fatal("non-binary output bits accepted")
	}
}

// TestNoiseDrawSkipEquivalence pins the circuit.NoiseSource contract: a
// fresh oracle skipped n draws continues the stream exactly where a
// used oracle that consumed n draws is.
func TestNoiseDrawSkipEquivalence(t *testing.T) {
	_, _, fresh := journalFixture(t)
	a := fresh()
	x := make([]bool, a.NumInputs())
	for i := 0; i < 7; i++ {
		a.Query(x)
		a.QueryBlock(x, 2)
	}
	n := a.NoiseDraws()
	if n == 0 {
		t.Fatal("no draws consumed")
	}
	b := fresh()
	b.SkipNoiseDraws(n)
	if b.NoiseDraws() != n {
		t.Fatalf("skip landed at %d, want %d", b.NoiseDraws(), n)
	}
	ya := append([]bool(nil), a.Query(x)...)
	yb := append([]bool(nil), b.Query(x)...)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("skipped oracle diverged from the continuously used one")
		}
	}
	wa := append([]uint64(nil), a.QueryBlock(x, 3)...)
	wb := append([]uint64(nil), b.QueryBlock(x, 3)...)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatal("skipped oracle block words diverged")
		}
	}
}
