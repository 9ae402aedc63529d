// Durable job fabric: the store's write-ahead log over internal/wal.
// Every record is a one-line JSON envelope (walRec); jobs, specs,
// lifecycle transitions, oracle tapes and engine checkpoints are all
// records in one log. Startup replays the log, rebuilds terminal jobs
// for listing, re-enqueues the rest with their recorded oracle tape
// (resume-by-re-execution; see docs/SERVER.md "Persistence and
// recovery"), and compacts the log to the survivors.
package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"statsat"
	"statsat/internal/wal"
)

// walRec record kinds.
const (
	recJob   = "job"   // admission: spec + created timestamp
	recState = "state" // lifecycle transition (terminal ones carry the outcome)
	recTape  = "tape"  // one live oracle interaction (oracle.TapeRecord)
	recCkpt  = "ckpt"  // engine checkpoint; written with an fsync barrier
	recEvict = "evict" // store eviction or admission rollback
)

// walRec is the JSON envelope framed into the write-ahead log. Unknown
// kinds are skipped on replay so older servers tolerate newer logs.
type walRec struct {
	T       string              `json:"t"`
	ID      string              `json:"id,omitempty"`
	At      int64               `json:"at,omitempty"` // unix nanoseconds
	Spec    json.RawMessage     `json:"spec,omitempty"`
	State   State               `json:"state,omitempty"`
	Err     string              `json:"err,omitempty"`
	Outcome *Outcome            `json:"outcome,omitempty"`
	Ckpt    *statsat.Checkpoint `json:"ckpt,omitempty"`
	Tape    *statsat.TapeRecord `json:"tape,omitempty"`
}

// warnf reports a durability failure; the in-memory fabric carries on.
func (s *store) warnf(format string, args ...interface{}) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// append marshals and frames one record; failures degrade durability,
// not the in-memory job fabric, so they are logged and swallowed.
// Callers check s.log first.
func (s *store) append(r walRec, fsync bool) {
	b, err := json.Marshal(r)
	if err == nil {
		if fsync {
			err = s.log.AppendSync(b)
		} else {
			err = s.log.Append(b)
		}
	}
	if err != nil {
		s.warnf("statsatd: wal append (%s %s): %v", r.T, r.ID, err)
	}
}

// bind wires a job's durability hooks; without a log it leaves the
// zero sinks.
//   - transition: every lifecycle move becomes a state record; terminal
//     ones carry the outcome and fsync before Done waiters release.
//   - tape: each live oracle interaction is appended (group-committed,
//     no per-record fsync — the checkpoint is the barrier).
//   - ckpt: engine checkpoints append with fsync, making everything up
//     to the end of that iteration durable.
func (s *store) bind(j *Job) {
	if s.log == nil {
		return
	}
	id := j.ID
	n := 0 // checkpoint count; sinks are invoked sequentially per job
	j.sinks = sinks{
		transition: s.transition,
		tape: func(r statsat.TapeRecord) {
			s.append(walRec{T: recTape, ID: id, Tape: &r}, false)
		},
		ckpt: func(c statsat.Checkpoint) {
			s.append(walRec{T: recCkpt, ID: id, Ckpt: &c}, true)
			if s.ckptHook != nil {
				n++
				s.ckptHook(id, n)
			}
		},
	}
}

// transition logs one lifecycle move: the job's own transitions, after
// its state settles (outside j.mu), and the write-ahead queued record
// of Server.enqueue. A no-op without a log.
func (s *store) transition(j *Job, st State) {
	if s.log == nil {
		return
	}
	r := walRec{T: recState, ID: j.ID, State: st, At: time.Now().UnixNano()}
	if st.Terminal() {
		r.Outcome = j.Outcome()
		if err := j.Err(); err != nil {
			r.Err = err.Error()
		}
	}
	s.append(r, st.Terminal())
}

// jobHistory is one job's state folded out of the replayed log.
type jobHistory struct {
	id      string
	seq     int64 // numeric part of id
	spec    json.RawMessage
	created int64
	started int64 // last running-state timestamp
	ended   int64 // terminal-state timestamp
	queued  bool  // reached the work queue
	state   State // last recorded state ("" = admission only)
	errText string
	outcome *Outcome
	tape    []statsat.TapeRecord
	ckpt    *statsat.Checkpoint
	evicted bool
}

// openPersistent opens cfg.DataDir's job fabric: replay, rebuild,
// compact. It returns the store, logging to the reopened WAL, and the
// non-terminal survivors the server re-enqueues at Start (their ctx is
// bound there).
func openPersistent(cfg Config) (*store, []*Job, error) {
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "trace"), 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	log, payloads, err := wal.Open(filepath.Join(cfg.DataDir, "jobs.wal"))
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening wal: %w", err)
	}
	st := newStore(cfg.MaxJobs)
	st.log, st.logf, st.ckptHook = log, cfg.Logf, cfg.ckptHook

	hists, order, maxSeq := foldLog(payloads, st.warnf)
	var (
		resume  []*Job
		compact [][]byte
	)
	for _, id := range order {
		h := hists[id]
		if h.evicted || !h.queued {
			continue // history only; a half-admission never ran
		}
		j, err := h.rebuild(cfg.TraceBuffer)
		if err != nil {
			st.warnf("statsatd: dropping job %s on recovery: %v", id, err)
			continue
		}
		if err := st.adopt(j); err != nil {
			st.warnf("statsatd: dropping job %s on recovery: %v", id, err)
			continue
		}
		if !h.state.Terminal() {
			st.bind(j)
			resume = append(resume, j)
		}
		compact = append(compact, h.encode(st.warnf)...)
	}
	st.bumpSeq(maxSeq)
	if err := log.Rewrite(compact); err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("server: compacting wal: %w", err)
	}
	return st, resume, nil
}

// foldLog reduces the replayed payloads to per-job histories, in ID
// order, plus the highest job sequence number ever issued. IDs are
// issued in registration order, so ID order is the previous life's
// listing order; the log's own order is not, because concurrent
// admissions append their job records in either order.
func foldLog(payloads [][]byte, warnf func(string, ...interface{})) (map[string]*jobHistory, []string, int64) {
	hists := map[string]*jobHistory{}
	var order []string
	var maxSeq int64
	for _, p := range payloads {
		var r walRec
		if err := json.Unmarshal(p, &r); err != nil {
			warnf("statsatd: skipping undecodable wal record: %v", err)
			continue
		}
		if r.T == recJob {
			n, _ := idSeq(r.ID)
			if n > maxSeq {
				maxSeq = n
			}
			hists[r.ID] = &jobHistory{id: r.ID, seq: n, spec: r.Spec, created: r.At}
			order = append(order, r.ID)
			continue
		}
		h, ok := hists[r.ID]
		if !ok {
			continue // record for a job whose admission was compacted away
		}
		switch r.T {
		case recState:
			h.state = r.State
			switch {
			case r.State == StateQueued:
				h.queued = true
			case r.State == StateRunning:
				h.started = r.At
			case r.State.Terminal():
				h.ended, h.outcome, h.errText = r.At, r.Outcome, r.Err
			}
		case recTape:
			if r.Tape != nil {
				h.tape = append(h.tape, *r.Tape)
			}
		case recCkpt:
			if r.Ckpt == nil {
				continue
			}
			if h.ckpt != nil && !r.Ckpt.Covers(*h.ckpt) {
				warnf("statsatd: job %s: non-monotone checkpoint dropped", r.ID)
				continue
			}
			h.ckpt = r.Ckpt
		case recEvict:
			h.evicted = true
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return hists[order[a]].seq < hists[order[b]].seq })
	return hists, order, maxSeq
}

// rebuild turns a history back into a *Job. Terminal jobs come back
// frozen (closed stream, released Done) for listing; non-terminal ones
// come back queued with their oracle tape attached, ready for
// re-execution — the journal replays the tape so the resumed
// trajectory is identical to an uninterrupted run.
func (h *jobHistory) rebuild(traceBuf int) (*Job, error) {
	var sp Spec
	if err := json.Unmarshal(h.spec, &sp); err != nil {
		return nil, fmt.Errorf("decoding logged spec: %w", err)
	}
	mat, err := sp.materialize()
	if err != nil {
		return nil, fmt.Errorf("re-materializing spec: %w", err)
	}
	j := newJob(&sp, mat, traceBuf)
	j.ID = h.id
	if h.created > 0 {
		j.created = time.Unix(0, h.created)
	}
	if h.state.Terminal() {
		j.state = h.state
		j.outcome = h.outcome
		if h.errText != "" {
			j.err = fmt.Errorf("%s", h.errText)
		}
		if h.started > 0 {
			j.started = time.Unix(0, h.started)
		}
		if h.ended > 0 {
			j.finished = time.Unix(0, h.ended)
		}
		j.mat = nil
		j.stream.Close()
		close(j.done)
		return j, nil
	}
	if err := statsat.ValidateTape(h.tape, mat.orc); err != nil {
		// A tape that no longer matches the oracle interface means the
		// spec materialized differently; restart the attack cleanly.
		return nil, fmt.Errorf("validating oracle tape: %w", err)
	}
	j.tape = h.tape
	return j, nil
}

// encode re-frames a surviving history for compaction: the admission,
// the collapsed lifecycle, and — for jobs that will resume — the tape
// and last checkpoint. Terminal jobs shed their tapes, which is where
// the log reclaims its space.
func (h *jobHistory) encode(warnf func(string, ...interface{})) [][]byte {
	var out [][]byte
	add := func(r walRec) {
		b, err := json.Marshal(r)
		if err != nil {
			warnf("statsatd: compacting job %s: %v", h.id, err)
			return
		}
		out = append(out, b)
	}
	add(walRec{T: recJob, ID: h.id, At: h.created, Spec: h.spec})
	add(walRec{T: recState, ID: h.id, State: StateQueued, At: h.created})
	if h.state.Terminal() {
		if h.started > 0 {
			add(walRec{T: recState, ID: h.id, State: StateRunning, At: h.started})
		}
		add(walRec{T: recState, ID: h.id, State: h.state, At: h.ended,
			Outcome: h.outcome, Err: h.errText})
		return out
	}
	for i := range h.tape {
		add(walRec{T: recTape, ID: h.id, Tape: &h.tape[i]})
	}
	if h.ckpt != nil {
		add(walRec{T: recCkpt, ID: h.id, Ckpt: h.ckpt})
	}
	return out
}
