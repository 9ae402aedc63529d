package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// Cancellation causes distinguishable in job status output.
var (
	errClientCancel = errors.New("job cancelled by client request")
	errShutdown     = errors.New("server shutting down")
)

// Config parameterises a Server. Zero values pick serviceable
// defaults.
type Config struct {
	// Workers bounds concurrently running jobs (default: GOMAXPROCS).
	Workers int
	// MaxJobs bounds retained jobs (store capacity; default 256).
	MaxJobs int
	// QueueDepth bounds jobs waiting for a worker (default: 2*MaxJobs).
	QueueDepth int
	// MaxBodyBytes bounds the POST /v1/jobs request body — netlist
	// uploads included (default 8 MiB).
	MaxBodyBytes int64
	// TraceBuffer bounds each job's trace replay ring, in events
	// (default 4096; see trace.Stream). The ring costs 176 B per event
	// it retains, so a short job holds only its own events.
	TraceBuffer int
	// DataDir, when set, enables the durable job fabric: jobs, specs,
	// state transitions, oracle tapes and checkpoints are logged to a
	// write-ahead log under the directory, trace streams spill to
	// NDJSON files, and a restarted server lists terminal jobs,
	// re-enqueues queued ones and resumes running ones from their last
	// recorded state (docs/SERVER.md "Persistence and recovery").
	// Empty keeps the in-memory fabric — the default.
	DataDir string
	// Logf, if set, receives one line per lifecycle transition.
	Logf func(format string, args ...interface{})

	// ckptHook (tests only) observes each durable checkpoint append:
	// the job ID plus that job's running checkpoint count, invoked
	// synchronously from the checkpoint sink — i.e. while the engine is
	// blocked at the Step boundary. Crash-recovery tests use it to
	// snapshot the data directory at a deterministic mid-run point.
	ckptHook func(jobID string, n int)
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.MaxJobs
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
}

// Server is the statsatd HTTP handler plus its worker pool and job
// store. Create with New, wire into an http.Server, call Start to
// begin executing jobs, and Shutdown to drain. Server implements
// http.Handler.
type Server struct {
	cfg   Config
	store *store
	mux   *http.ServeMux

	// queue is the pull queue: workers take the next admitted job
	// whenever they free up, the same shape as the experiment
	// scheduler's shared-queue pool (internal/exp).
	queue *queue
	// wg counts the workers, the trace spills and every admission that
	// passed the accepting check, so Shutdown closes the log only after
	// all of them have written their records.
	wg sync.WaitGroup

	// spillDir is the durable trace spill directory ("" without
	// persistence); resume holds recovered non-terminal jobs awaiting
	// re-enqueue at Start.
	spillDir string
	resume   []*Job

	mu         sync.Mutex
	started    bool
	closed     bool
	base       context.Context
	baseCancel context.CancelCauseFunc
}

// New builds an idle server; no goroutines run until Start (the WAL
// writer, on the persistent path, is the one exception). With
// cfg.DataDir set, New replays the write-ahead log: terminal jobs are
// listed immediately, non-terminal ones are re-enqueued when Start
// runs, and the log is compacted to the surviving jobs.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	s := &Server{cfg: cfg, queue: newQueue(cfg.QueueDepth)}
	if cfg.DataDir == "" {
		s.store = newStore(cfg.MaxJobs)
	} else {
		st, resume, err := openPersistent(cfg)
		if err != nil {
			return nil, err
		}
		s.store, s.resume = st, resume
		s.spillDir = filepath.Join(cfg.DataDir, "trace")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s, nil
}

// Start launches the worker pool and re-enqueues recovered jobs. ctx
// is the base context every job's context derives from: cancelling it
// interrupts all running jobs (each flushes an `interrupted` trace
// event and publishes its partial result), but the pool itself drains
// only via Shutdown. Start after Shutdown does nothing.
func (s *Server) Start(ctx context.Context) {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.base, s.baseCancel = context.WithCancelCause(ctx)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	resume := s.resume
	s.resume = nil
	for _, j := range resume {
		j.ctx, j.cancel = context.WithCancelCause(s.base)
	}
	s.wg.Add(1) // the re-admissions below, like handleSubmit's
	s.mu.Unlock()

	for _, j := range resume {
		taped := len(j.tape) // a worker may settle j, and drop its tape, once it is queued
		if s.enqueue(j) == nil {
			s.logf("statsatd: job %s recovered (%s on %s, %d taped interactions)",
				j.ID, j.attack, j.circuit.Name, taped)
		} else {
			j.finish(StateFailed, nil, errors.New("server: queue full at recovery"))
			j.cancel(nil)
		}
	}
	s.wg.Done()
	s.logf("statsatd: %d workers, %d job capacity", s.cfg.Workers, s.cfg.MaxJobs)
}

// worker pulls admitted jobs until the queue closes. Jobs cancelled
// while queued fail tryStart inside execute and are skipped.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.take()
		if !ok {
			return
		}
		s.logf("statsatd: job %s starting (%s on %s)", j.ID, j.attack, j.circuit.Name)
		s.startSpill(j)
		j.execute(j.ctx)
		j.cancel(nil) // release the job context's resources
		s.logf("statsatd: job %s %s", j.ID, j.State())
		if out := j.Outcome(); out != nil && out.TapeDiverged {
			s.logf("statsatd: job %s diverged from its resume tape and finished on the live oracle", j.ID)
		}
	}
}

// Shutdown drains the server: submissions are refused from this point,
// every queued or running job is cancelled with a shutdown cause
// (running attacks stop at the engine's next interrupt check, flush
// the `interrupted` trace event and keep their best-effort partial
// outcome), and the worker pool exits. Once the pool is idle and every
// admission in flight has settled, the job store is closed (flushing
// the WAL on the persistent path). Blocks until then or until ctx
// expires. Safe to call more than once. Called before Start, it only
// closes the store, and the server never starts.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		s.queue.close()
	}
	if !s.started {
		// No worker or admission ever ran; a later Start is a no-op.
		s.mu.Unlock()
		if first {
			return s.store.close()
		}
		return nil
	}
	cancel := s.baseCancel
	s.mu.Unlock()

	if first {
		s.logf("statsatd: shutting down")
		cancel(errShutdown)
		// Settle jobs still waiting in the queue so their streams close
		// and Done waiters release even before a worker pops them.
		for _, j := range s.store.list() {
			if j.State() == StateQueued {
				j.Cancel(errShutdown)
			}
		}
	}

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		if first {
			if err := s.store.close(); err != nil {
				s.logf("statsatd: closing job store: %v", err)
			}
		}
		s.logf("statsatd: drained")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown wait: %w", ctx.Err())
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// accepting reports whether submissions are currently admitted.
func (s *Server) accepting() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && !s.closed
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// submitReply is the POST /v1/jobs response body.
type submitReply struct {
	ID    string `json:"id"`
	State State  `json:"state"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sp, err := decodeSpec(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	mat, err := sp.materialize()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	j := newJob(sp, mat, s.cfg.TraceBuffer)

	// Server.mu covers only the accepting check and the job's context.
	// The store and the queue hand-off may wait on the WAL writer, so
	// they run outside it, counted in s.wg.
	s.mu.Lock()
	if !s.started || s.closed {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, errShutdown)
		return
	}
	s.wg.Add(1)
	j.ctx, j.cancel = context.WithCancelCause(s.base)
	s.mu.Unlock()
	code, err := s.admit(j)
	s.wg.Done()
	if err != nil {
		j.cancel(nil)
		httpError(w, code, err)
		return
	}
	s.logf("statsatd: job %s admitted (%s on %s)", j.ID, mat.attack, mat.circuit.Name)
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, submitReply{ID: j.ID, State: j.State()})
}

// admit registers j and hands it to the worker pool, rolling the
// registration back if the hand-off fails. A refusal comes with its
// status code: 429 for a full store or queue, 503 when Shutdown closed
// the queue after the accepting check.
func (s *Server) admit(j *Job) (int, error) {
	evicted, err := s.store.add(j)
	if err != nil {
		return http.StatusTooManyRequests, err
	}
	for _, e := range evicted {
		s.removeSpill(e.ID)
	}
	if err := s.enqueue(j); err != nil {
		s.store.remove(j.ID)
		if errors.Is(err, errShutdown) {
			return http.StatusServiceUnavailable, err
		}
		return http.StatusTooManyRequests, err
	}
	return http.StatusAccepted, nil
}

// enqueue hands j to the worker pool, write-ahead on the persistent
// path: the queued record, which tells replay the job got past a
// half-admission, lands before the hand-off. If the hand-off fails,
// the caller's next record supersedes it (admission's evict rollback,
// recovery's failed state); if the server crashes between the two, the
// job is resurrected, and its client was promised nothing either way.
func (s *Server) enqueue(j *Job) error {
	s.store.transition(j, StateQueued)
	return s.queue.put(j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.list()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleTrace live-streams the job's trace as NDJSON (one
// docs/OBSERVABILITY.md event object per line): first the replay of
// everything still buffered, then each new event as the attack emits
// it. The response ends when the job reaches a terminal state (its
// stream closes) or the client goes away. For a terminal job recovered
// from a previous server life — whose in-memory ring is empty — the
// durable spill file is served instead.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	if s.spillDir != "" && j.stream.Closed() && j.stream.Len() == 0 {
		if f, err := os.Open(s.spillPath(j.ID)); err == nil {
			defer f.Close()
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.Header().Set("Cache-Control", "no-store")
			w.WriteHeader(http.StatusOK)
			_, _ = io.Copy(w, f)
			return
		}
	}
	sub := j.stream.Subscribe(0)
	defer sub.Cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers before the first event arrives
	}
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, ok := <-sub.C:
			if !ok {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			// Flush per batch: drain whatever is already queued before
			// paying the flush, so bursts cost one write.
			if len(sub.C) == 0 && flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleCancel interrupts the job and replies with its settled status
// — including the best-effort partial outcome the cancellation
// contract guarantees (docs/ARCHITECTURE.md). If the job cannot settle
// before the request's own context ends, the in-flight status is
// returned instead.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	j.Cancel(errClientCancel)
	select {
	case <-j.Done():
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleHealth reports liveness plus the per-state job census and
// whether the durable fabric is on (docs/SERVER.md).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	states := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0,
		StateCancelled: 0, StateFailed: 0,
	}
	jobs := s.store.list()
	for _, j := range jobs {
		states[j.State()]++
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":      "ok",
		"accepting":   s.accepting(),
		"jobs":        len(jobs),
		"states":      states,
		"workers":     s.cfg.Workers,
		"persistence": s.store.log != nil,
	})
}

// spillPath is the durable NDJSON trace file for a job ID.
func (s *Server) spillPath(id string) string {
	return filepath.Join(s.spillDir, id+".jsonl")
}

// removeSpill drops an evicted job's trace file (persistence only).
func (s *Server) removeSpill(id string) {
	if s.spillDir == "" {
		return
	}
	_ = os.Remove(s.spillPath(id))
}

// startSpill mirrors the job's trace stream into its spill file. The
// file is truncated first: a resumed job re-emits its full event
// history from iteration zero, so the rewrite is the complete record.
// The goroutine drains until the stream closes at job settlement and
// is counted in s.wg so Shutdown waits for the final flush.
func (s *Server) startSpill(j *Job) {
	if s.spillDir == "" {
		return
	}
	f, err := os.OpenFile(s.spillPath(j.ID), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		s.logf("statsatd: job %s trace spill: %v", j.ID, err)
		return
	}
	sub := j.stream.Subscribe(s.cfg.TraceBuffer)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer f.Close()
		enc := json.NewEncoder(f)
		for ev := range sub.C {
			if err := enc.Encode(ev); err != nil {
				s.logf("statsatd: job %s trace spill: %v", j.ID, err)
				sub.Cancel()
				return
			}
		}
	}()
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// httpError writes a JSON error envelope.
func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
