package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"statsat"
	"statsat/internal/wal"
)

// ErrStoreFull is returned when a new job cannot be admitted because
// the store is at capacity and every retained job is still queued or
// running (terminal jobs are evicted oldest-first to make room).
var ErrStoreFull = errors.New("server: job store full")

// errQueueFull refuses an admission whose hand-off finds the work
// queue at its bound.
var errQueueFull = errors.New("server: job queue full")

// store is the job registry every lifecycle transition routes through:
// bounded, insertion-ordered, eviction-safe. Eviction only ever removes
// terminal jobs — a queued or running job is never dropped, so the
// bound degrades history retention, not correctness.
//
// log is the write-ahead log under -data (persist.go) and nil
// otherwise. Every method that records something checks it first, so
// the in-memory store builds no record and reads no clock. Log appends
// wait on the WAL writer and never run under mu.
type store struct {
	mu    sync.Mutex
	jobs  map[string]*Job
	order []*Job // insertion order (oldest first), which is ID order
	cap   int
	seq   int64

	log      *wal.Log
	logf     func(format string, args ...interface{})
	ckptHook func(jobID string, n int) // tests only (Config.ckptHook)
}

func newStore(capacity int) *store {
	return &store{jobs: make(map[string]*Job, capacity), cap: capacity}
}

// add assigns j its ID, binds its durability sinks and registers it,
// evicting the oldest terminal jobs if the store is full; the evicted
// jobs are returned so the caller can release their side state. Fails
// with ErrStoreFull when nothing is evictable. With a log, the
// admission and the evictions are logged after registration.
func (s *store) add(j *Job) ([]*Job, error) {
	var spec []byte
	if s.log != nil {
		var err error
		if spec, err = json.Marshal(j.Spec); err != nil {
			// A job whose spec cannot be logged must not run believing
			// it is durable.
			return nil, fmt.Errorf("server: encoding spec for wal: %w", err)
		}
	}
	s.mu.Lock()
	var evicted []*Job
	for len(s.order) >= s.cap {
		e := s.evictLocked()
		if e == nil {
			s.mu.Unlock()
			return nil, ErrStoreFull
		}
		evicted = append(evicted, e)
	}
	s.seq++
	j.ID = fmt.Sprintf("j%06d", s.seq)
	// Bind before publishing: once j is listed, Shutdown may cancel it,
	// and the cancellation reads j.sinks.
	s.bind(j)
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
	if s.log != nil {
		s.append(walRec{T: recJob, ID: j.ID, At: time.Now().UnixNano(), Spec: spec}, false)
		for _, e := range evicted {
			s.append(walRec{T: recEvict, ID: e.ID}, false)
		}
	}
	return evicted, nil
}

// adopt registers a recovered job under its existing ID (WAL replay
// path), bumping seq so fresh admissions never collide with history.
func (s *store) adopt(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) >= s.cap && s.evictLocked() == nil {
		return ErrStoreFull
	}
	if n, ok := idSeq(j.ID); ok && n > s.seq {
		s.seq = n
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	return nil
}

// bumpSeq raises the ID sequence floor (WAL recovery: evicted history
// must not have its IDs reissued while spill files may linger).
func (s *store) bumpSeq(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > s.seq {
		s.seq = n
	}
}

// idSeq parses the numeric part of a "j%06d" job ID.
func idSeq(id string) (int64, bool) {
	var n int64
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// evictLocked drops and returns the oldest terminal job; nil when
// every job is still live.
func (s *store) evictLocked() *Job {
	for i, j := range s.order {
		if j.State().Terminal() {
			delete(s.jobs, j.ID)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return j
		}
	}
	return nil
}

// remove unregisters a job: the rollback of an admission whose queue
// hand-off failed. With a log, the evict record supersedes the job's
// admission on replay.
func (s *store) remove(id string) {
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		delete(s.jobs, id)
		for i, o := range s.order {
			if o == j {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
	}
	s.mu.Unlock()
	if s.log != nil {
		s.append(walRec{T: recEvict, ID: id}, false)
	}
}

// get looks a job up by ID.
func (s *store) get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// list returns the retained jobs in insertion order.
func (s *store) list() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// close flushes and closes the log, if any. The server calls it once,
// after the worker pool and every admission in flight have finished.
func (s *store) close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// queue is the pull queue between admission and the worker pool: a
// bounded channel guarded by a closed flag, so a late put racing
// Shutdown is refused instead of panicking on a closed channel. put
// never blocks (admission answers 429 on a full queue); take blocks
// until a job is available or the queue closes.
type queue struct {
	mu     sync.Mutex
	ch     chan *Job
	closed bool
}

func newQueue(depth int) *queue {
	return &queue{ch: make(chan *Job, depth)}
}

// put admits j for execution. It fails with errShutdown once the queue
// is closed and with errQueueFull at the bound.
func (q *queue) put(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errShutdown
	}
	select {
	case q.ch <- j:
		return nil
	default:
		return errQueueFull
	}
}

// take blocks for the next job; ok=false when the queue is closed and
// drained.
func (q *queue) take() (*Job, bool) {
	j, ok := <-q.ch
	return j, ok
}

// close ends intake; take drains the backlog, then reports false.
// Idempotent.
func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	close(q.ch)
}

// sinks bundles the durability hooks the store binds onto a job; the
// zero value (in-memory path) disables them all.
type sinks struct {
	// transition logs a lifecycle transition after the job's own state
	// has settled (invoked outside j.mu).
	transition func(j *Job, st State)
	// tape receives every live oracle interaction (oracle journal
	// sink); ckpt receives engine checkpoints and doubles as the
	// durability barrier.
	tape func(statsat.TapeRecord)
	ckpt func(statsat.Checkpoint)
}
