package oracle

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"statsat/internal/circuit"
	"statsat/internal/gen"
)

// journalFixture builds the c17 benchmark with a fixed key and returns
// a fresh noisy oracle over it.
func journalFixture(t testing.TB) (*circuit.Circuit, []bool, func() *Probabilistic) {
	t.Helper()
	c := gen.C17()
	key := make([]bool, c.NumKeys())
	return c, key, func() *Probabilistic {
		return NewProbabilistic(c, key, 0.05, 42)
	}
}

// drive performs a deterministic mixed workload (scalar, one-word
// block, SignalProbs) against o and returns a digest of every answer.
func drive(t testing.TB, o Oracle, nin int, upto int) [][]bool {
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

// tapeDamages are the damaged tapes TestValidateTape must see
// rejected, each an edit of a valid noisy-chip tape whose record 0 is
// a scalar query.
var tapeDamages = []struct {
	name   string
	damage func(tape []TapeRecord)
}{
	{"wrong input width", func(tp []TapeRecord) { tp[0].X += "0" }},
	{"non-monotone counters", func(tp []TapeRecord) { tp[len(tp)-1].Queries = 0 }},
	{"unknown record kind", func(tp []TapeRecord) { tp[0].Kind = "zz" }},
	{"non-binary input bits", func(tp []TapeRecord) { tp[0].X = "?" + tp[0].X[1:] }},
	{"non-binary output bits", func(tp []TapeRecord) { tp[0].Y = "?" + tp[0].Y[1:] }},
	{"more draws than a query takes", func(tp []TapeRecord) {
		for i := range tp {
			tp[i].Draws += 1 << 40
		}
	}},
}

func TestValidateTape(t *testing.T) {
	c, key, fresh := journalFixture(t)
	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	drive(t, ctrl, ctrl.NumInputs(), 6)
	if err := ValidateTape(tape, fresh()); err != nil {
		t.Fatalf("valid tape rejected: %v", err)
	}
	if err := ValidateTape(tape, NewDeterministic(c, key)); !errors.Is(err, ErrBadTape) {
		t.Fatalf("block records on a scalar-only oracle: %v, want ErrBadTape", err)
	}
	if tape[0].Kind != "q" {
		t.Fatalf("record 0 is %q; the output-bit case needs a scalar query", tape[0].Kind)
	}
	for _, tc := range tapeDamages {
		bad := append([]TapeRecord(nil), tape...)
		tc.damage(bad)
		if err := ValidateTape(bad, fresh()); !errors.Is(err, ErrBadTape) {
			t.Errorf("%s: %v, want ErrBadTape", tc.name, err)
		}
	}
	// A deterministic chip draws no noise, so its tape records none.
	var scalar []TapeRecord
	det := NewJournal(NewDeterministic(c, key), nil, func(r TapeRecord) { scalar = append(scalar, r) })
	drive(t, det, det.NumInputs(), 6)
	if err := ValidateTape(scalar, NewDeterministic(c, key)); err != nil {
		t.Fatalf("valid scalar tape rejected: %v", err)
	}
	scalar[len(scalar)-1].Draws = 1
	if err := ValidateTape(scalar, NewDeterministic(c, key)); !errors.Is(err, ErrBadTape) {
		t.Fatalf("noise draws on a deterministic chip: %v, want ErrBadTape", err)
	}
}

// FuzzJournalReplay resumes from damaged tapes. The first input is a
// JSON tape for c17, checked against a deterministic chip and a noisy
// one: ValidateTape rejects it with ErrBadTape, or NewJournal replays
// it under the scalar and block queries the second input spells (one
// byte each: the low five bits are the input, a set top bit asks for
// a block of 1 + bits 5–6 words). Replay never panics, answers have
// the oracle's widths, and the journal's query and draw counters, and
// those of the records it writes, never go backwards.
func FuzzJournalReplay(f *testing.F) {
	c, key, fresh := journalFixture(f)
	var tape []TapeRecord
	ctrl := NewJournal(fresh(), nil, func(r TapeRecord) { tape = append(tape, r) })
	drive(f, ctrl, ctrl.NumInputs(), 6)
	ops := []byte{0x00, 0x83, 0x1f, 0xe5, 0x07, 0xa0}
	add := func(tp []TapeRecord) {
		b, err := json.Marshal(tp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, ops)
	}
	add(tape)
	add(tape[:len(tape)/2])
	for _, tc := range tapeDamages {
		bad := append([]TapeRecord(nil), tape...)
		tc.damage(bad)
		add(bad)
	}
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		var tp []TapeRecord
		if json.Unmarshal(data, &tp) != nil {
			return
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for _, inner := range []Oracle{NewDeterministic(c, key), fresh()} {
			if err := ValidateTape(tp, inner); err != nil {
				if !errors.Is(err, ErrBadTape) {
					t.Fatalf("ValidateTape error %v does not wrap ErrBadTape", err)
				}
				continue
			}
			var lastQ int64
			var lastD uint64
			j := NewJournal(inner, tp, func(r TapeRecord) {
				if r.Queries < lastQ || r.Draws < lastD {
					t.Fatalf("recorded counters went backwards: %d/%d after %d/%d", r.Queries, r.Draws, lastQ, lastD)
				}
				lastQ, lastD = r.Queries, r.Draws
			})
			q, d := j.Queries(), j.NoiseDraws()
			x := make([]bool, j.NumInputs())
			for _, b := range ops {
				for i := range x {
					x[i] = b>>uint(i)&1 == 1
				}
				blq, wmax := Blocks(j)
				if b&0x80 != 0 && wmax > 0 {
					words := 1 + int(b>>5&3)
					if words > wmax {
						words = wmax
					}
					if w := blq.QueryBlock(x, words); len(w) != j.NumOutputs()*words {
						t.Fatalf("block of %d words returned %d words", words, len(w))
					}
				} else if y := j.Query(x); len(y) != j.NumOutputs() {
					t.Fatalf("query returned %d bits", len(y))
				}
				nq, nd := j.Queries(), j.NoiseDraws()
				if nq < q || nd < d {
					t.Fatalf("counters went backwards: queries %d → %d, draws %d → %d", q, nq, d, nd)
				}
				q, d = nq, nd
			}
		}
	})
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
