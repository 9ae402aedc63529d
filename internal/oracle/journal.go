package oracle

// The journal is the resume substrate for the durable job fabric
// (docs/SERVER.md "Persistence and recovery"): every oracle
// interaction of a running attack is recorded as a TapeRecord, and a
// resumed attack re-executes from iteration zero with the tape served
// back instead of fresh silicon queries. Because every attack in this
// repository is deterministic given its seed and its oracle answers
// (docs/ARCHITECTURE.md), replaying the recorded answers reproduces
// the interrupted trajectory exactly — same DIPs, same forks, same
// counters — after which the journal switches to the live oracle,
// whose noise stream has been skipped to the recorded draw position.
// The resumed run is therefore byte-identical to an uninterrupted one,
// no matter where the original was interrupted (even mid-sampling:
// a tape prefix simply replays fewer samples before going live).

import (
	"errors"
	"fmt"
)

// NoiseCounter is implemented by oracles whose noisy evaluations
// consume a counted rng stream (Probabilistic). NoiseDraws reports the
// stream position; SkipNoiseDraws advances a fresh oracle to a
// recorded position so resumed sampling continues the same stream.
// MaxNoiseDraws bounds the draws one interaction can take: a scalar
// Query for words = 0, a QueryBlock of words words otherwise.
// ValidateTape holds every tape record to it, so a damaged draw count
// cannot send a resume's skip on an endless walk.
type NoiseCounter interface {
	NoiseDraws() uint64
	SkipNoiseDraws(n uint64)
	MaxNoiseDraws(words int) uint64
}

// ErrBadTape matches, via errors.Is, every error ValidateTape returns.
var ErrBadTape = errors.New("oracle: bad tape")

// TapeRecord is one recorded oracle interaction. Kind "q" is a scalar
// Query (Y holds the output bits); kind "b" is a QueryBlock of Words
// words (W holds the NumOutputs×Words result words). The counter
// fields are cumulative totals after the interaction, so the final
// record of a tape carries everything a resume needs to position a
// fresh oracle.
type TapeRecord struct {
	Kind    string   `json:"k"`
	X       string   `json:"x"`
	Words   int      `json:"w,omitempty"`
	Y       string   `json:"y,omitempty"`
	W       []uint64 `json:"bw,omitempty"`
	Queries int64    `json:"q"`
	Draws   uint64   `json:"d,omitempty"`
}

// bitsKey packs a bool vector into the tape's '0'/'1' string form.
func bitsKey(bits []bool) string {
	buf := make([]byte, len(bits))
	for i, b := range bits {
		if b {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

// Journal wraps an oracle with replay-then-record semantics. While a
// tape prefix remains it serves recorded answers (consuming no real
// queries and no noise); once exhausted it passes through to the
// inner oracle and feeds each new interaction to the sink. Counter
// accessors always report the trajectory position — recorded totals
// during replay, recorded-plus-live after. Blocks are journalled like
// scalar queries, so blocked sampling keeps its trajectory across a
// resume; BlockWords is the inner oracle's, zero for a scalar-only one.
type Journal struct {
	inner    Oracle
	tape     []TapeRecord
	pos      int
	sink     func(TapeRecord)
	frozen   bool
	diverged bool
	// counters of the last consumed tape record; the live phase adds
	// the (initially zero) inner counters on top.
	baseQ int64
	baseD uint64
}

// NewJournal wraps a freshly materialized oracle (its counters at
// zero) with the given tape and record sink (either may be nil/empty).
// If the inner oracle counts noise draws, its stream is skipped to the
// tape's final draw position so post-replay sampling continues where
// the recorded run stopped.
func NewJournal(inner Oracle, tape []TapeRecord, sink func(TapeRecord)) *Journal {
	if len(tape) > 0 {
		end := tape[len(tape)-1]
		if nc, ok := inner.(NoiseCounter); ok {
			nc.SkipNoiseDraws(end.Draws - nc.NoiseDraws())
		}
	}
	return &Journal{inner: inner, tape: tape, sink: sink}
}

// replaying reports whether a tape prefix remains to be served.
func (j *Journal) replaying() bool { return !j.diverged && j.pos < len(j.tape) }

// Diverged reports that a replayed interaction did not match the tape.
// Every attack is deterministic given its oracle answers, so that
// happens only when the tape describes another trajectory: one
// recorded by a binary whose attacks have since changed their
// trajectories, or a job that an older daemon ran with concurrent
// StatSAT instances (a logged "parallel" option). The journal then
// drops the rest of the tape, stops recording entirely (the durable
// tape no longer describes this trajectory), and serves the live
// oracle.
func (j *Journal) Diverged() bool { return j.diverged }

func (j *Journal) diverge() {
	j.diverged = true
	j.frozen = true
	j.pos = len(j.tape)
}

// consume advances past tape[pos], adopting its cumulative counters.
func (j *Journal) consume() *TapeRecord {
	r := &j.tape[j.pos]
	j.pos++
	j.baseQ, j.baseD = r.Queries, r.Draws
	return r
}

// record feeds one live interaction to the sink with cumulative
// counters stamped.
func (j *Journal) record(r TapeRecord) {
	if j.frozen || j.sink == nil {
		return
	}
	r.Queries = j.Queries()
	if nc, ok := j.inner.(NoiseCounter); ok {
		r.Draws = nc.NoiseDraws()
	}
	j.sink(r)
}

// Query implements Oracle.
func (j *Journal) Query(x []bool) []bool {
	if j.replaying() {
		if r := &j.tape[j.pos]; r.Kind == "q" && r.X == bitsKey(x) {
			return PatternToBits(j.consume().Y)
		}
		j.diverge()
	}
	y := j.inner.Query(x)
	j.record(TapeRecord{Kind: "q", X: bitsKey(x), Y: bitsKey(y)})
	return y
}

// NumInputs implements Oracle.
func (j *Journal) NumInputs() int { return j.inner.NumInputs() }

// NumOutputs implements Oracle.
func (j *Journal) NumOutputs() int { return j.inner.NumOutputs() }

// Queries implements Oracle: the trajectory's cumulative query count
// (recorded totals while replaying, plus live queries after).
func (j *Journal) Queries() int64 { return j.baseQ + j.inner.Queries() }

// NoiseDraws implements NoiseCounter (position of the trajectory, not
// of the pre-skipped inner stream, while replaying).
func (j *Journal) NoiseDraws() uint64 {
	if j.replaying() {
		return j.baseD
	}
	if nc, ok := j.inner.(NoiseCounter); ok {
		return nc.NoiseDraws()
	}
	return 0
}

// SkipNoiseDraws implements NoiseCounter, forwarding to the inner
// oracle (a journal is itself journal-able, though the server never
// nests them).
func (j *Journal) SkipNoiseDraws(n uint64) {
	if nc, ok := j.inner.(NoiseCounter); ok {
		nc.SkipNoiseDraws(n)
	}
}

// MaxNoiseDraws implements NoiseCounter, forwarding to the inner
// oracle; zero when it draws no noise.
func (j *Journal) MaxNoiseDraws(words int) uint64 {
	if nc, ok := j.inner.(NoiseCounter); ok {
		return nc.MaxNoiseDraws(words)
	}
	return 0
}

// QueryBlock implements BlockQuerier; words must be in
// [1, BlockWords()].
func (j *Journal) QueryBlock(x []bool, words int) []uint64 {
	if j.replaying() {
		if r := &j.tape[j.pos]; r.Kind == "b" && r.Words == words && r.X == bitsKey(x) {
			return j.consume().W
		}
		j.diverge()
	}
	blq, _ := Blocks(j.inner)
	w := blq.QueryBlock(x, words)
	j.record(TapeRecord{Kind: "b", X: bitsKey(x), Words: words, W: append([]uint64(nil), w...)})
	return w
}

// BlockWords implements BlockQuerier: the inner oracle's widest block,
// or zero when it cannot block.
func (j *Journal) BlockWords() int {
	_, w := Blocks(j.inner)
	return w
}

// ValidateTape sanity-checks a replayed tape before a resume commits
// to it: records must match the oracle's pinout, spell their bit
// vectors in '0'/'1' only, and carry monotone non-decreasing
// cumulative counters, whose draw count no record may advance by more
// than its interaction can draw (none at all on an oracle that draws
// no noise). A WAL that replays intact but fails validation (a
// spec/netlist mismatch or a damaged record) aborts the resume rather
// than silently diverging. Every error wraps ErrBadTape.
func ValidateTape(tape []TapeRecord, o Oracle) error {
	nc, _ := o.(NoiseCounter)
	var q int64
	var d uint64
	for i, r := range tape {
		words := 0
		switch r.Kind {
		case "q":
			if len(r.Y) != o.NumOutputs() {
				return badTape(i, "%d output bits, oracle has %d", len(r.Y), o.NumOutputs())
			}
			if !isBits(r.Y) {
				return badTape(i, "output bits are not all '0'/'1'")
			}
		case "b":
			if r.Words < 1 || len(r.W) != o.NumOutputs()*r.Words {
				return badTape(i, "%d block words for width %d, oracle has %d outputs",
					len(r.W), r.Words, o.NumOutputs())
			}
			if _, w := Blocks(o); w == 0 {
				return badTape(i, "a block query, but the oracle is scalar-only")
			}
			words = r.Words
		default:
			return badTape(i, "unknown kind %q", r.Kind)
		}
		if len(r.X) != o.NumInputs() {
			return badTape(i, "%d input bits, oracle has %d", len(r.X), o.NumInputs())
		}
		if !isBits(r.X) {
			return badTape(i, "input bits are not all '0'/'1'")
		}
		if r.Queries < q || r.Draws < d {
			return badTape(i, "counters went backwards")
		}
		var most uint64
		if nc != nil {
			most = nc.MaxNoiseDraws(words)
		}
		if r.Draws-d > most {
			return badTape(i, "%d noise draws, one interaction draws at most %d", r.Draws-d, most)
		}
		q, d = r.Queries, r.Draws
	}
	return nil
}

func badTape(i int, format string, args ...interface{}) error {
	return fmt.Errorf("%w: record %d: %s", ErrBadTape, i, fmt.Sprintf(format, args...))
}

// isBits reports whether s spells a bit vector in the tape's '0'/'1'
// form; PatternToBits would read any other byte as false.
func isBits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' && s[i] != '1' {
			return false
		}
	}
	return true
}
