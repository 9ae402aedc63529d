package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"statsat"
	"statsat/internal/leakcheck"
	"statsat/internal/trace"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// testServer wires a started Server into an httptest frontend and
// registers teardown that drains both.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	hts := httptest.NewServer(srv)
	t.Cleanup(func() {
		hts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	})
	return srv, hts
}

// submit POSTs a spec and returns the assigned job ID.
func submit(t *testing.T, base string, sp Spec) string {
	t.Helper()
	id, err := trySubmit(base, sp)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// trySubmit is submit for goroutines other than the test's own.
func trySubmit(base string, sp Spec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("submit: %s: %s", resp.Status, b)
	}
	var reply submitReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return "", err
	}
	if reply.ID == "" {
		return "", errors.New("submit: empty job ID")
	}
	return reply.ID, nil
}

// getStatus GETs and decodes a job status.
func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job settles (white-box via the store so
// tests don't sleep-loop over HTTP).
func waitTerminal(t *testing.T, srv *Server, id string) *Job {
	t.Helper()
	j, ok := srv.store.get(id)
	if !ok {
		t.Fatalf("job %s not in store", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not settle", id)
	}
	return j
}

// slowSpec is a job that cannot finish quickly: an Anti-SAT locked
// benchmark forces 2^(k/2) distinguishing iterations, so a 24-bit
// lock (4096 DIPs, seconds of attack) keeps the attack busy far
// longer than any test step — the 300 ms job timeout included — while
// each individual iteration stays fast. (An 18-bit lock took 2.8 s
// while StatSAT enumerated N_satis fresh keys per DIP, and 0.24 s once
// its key pool kept them.)
func slowSpec() Spec {
	return Spec{
		Attack:    "statsat",
		Benchmark: "c880",
		Scale:     8,
		Lock:      "antisat",
		KeyBits:   24,
		Options:   SpecOptions{Ns: 20, MaxIter: 1 << 20},
	}
}

// quickSpec is a job that finishes in milliseconds.
func quickSpec(attack string) Spec {
	return Spec{
		Attack:    attack,
		Benchmark: "c17",
		Lock:      "rll",
		KeyBits:   4,
		Options:   SpecOptions{Ns: 10, NSatis: 5, NEval: 20, MaxIter: 500},
	}
}

// TestEndToEndCancelMidSolve is the acceptance-criteria flow: submit a
// job against a locked c880 oracle, observe at least one
// iteration_start event on the live NDJSON stream, cancel mid-solve,
// and receive a partial result whose error is ErrInterrupted.
func TestEndToEndCancelMidSolve(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 8})
	id := submit(t, hts.URL, slowSpec())

	// Follow the NDJSON stream until the first iteration_start.
	resp, err := http.Get(hts.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	sawIterStart := false
	for !sawIterStart {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended before iteration_start: %v", err)
		}
		if ev.Type == trace.IterStart {
			sawIterStart = true
		}
	}

	// Cancel mid-solve; DELETE waits for the job to settle and returns
	// the partial result.
	req, err := http.NewRequest(http.MethodDelete, hts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(dresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("state after DELETE = %s, want cancelled", st.State)
	}
	if st.Outcome == nil || !st.Outcome.Interrupted {
		t.Fatalf("outcome after DELETE = %+v, want interrupted partial", st.Outcome)
	}
	if st.Error == "" {
		t.Error("cancelled status has no error text")
	}

	// The Go error satisfies the facade's sentinel (white-box: HTTP
	// can't carry error identity).
	j := waitTerminal(t, srv, id)
	if err := j.Err(); !errors.Is(err, statsat.ErrInterrupted) {
		t.Fatalf("job error = %v, want ErrInterrupted", err)
	}

	// The stream flushed the interrupted event and then closed.
	sawInterrupted := false
	for {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			break // EOF: stream closed by job settlement
		}
		if ev.Type == trace.Interrupted {
			sawInterrupted = true
		}
	}
	if !sawInterrupted {
		t.Error("interrupted event not observed on the trace stream")
	}
}

// TestParallelBurst is the second acceptance criterion: an 8-job burst
// under -race with zero goroutine leaks after Shutdown.
func TestParallelBurst(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := New(Config{Workers: 4, MaxJobs: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	hts := httptest.NewServer(srv)

	var wg sync.WaitGroup
	ids := make([]string, 8)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			attack := []string{"statsat", "psat", "sat", "appsat"}[i%4]
			ids[i] = submit(t, hts.URL, quickSpec(attack))
		}(i)
	}
	wg.Wait()

	for _, id := range ids {
		j := waitTerminal(t, srv, id)
		if st := j.State(); st != StateDone {
			t.Errorf("job %s settled as %s (err %v)", id, st, j.Err())
		}
	}

	hts.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()

	// Goroutine count must return to the pre-server baseline (allowing
	// runtime jitter a moment to settle).
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

func TestShutdownInterruptsRunningJobs(t *testing.T) {
	srv, err := New(Config{Workers: 2, MaxJobs: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	hts := httptest.NewServer(srv)
	defer hts.Close()

	// One running slow job, one stuck behind it in the queue plus a
	// second worker-occupying job: submit three so at least one is
	// still queued at shutdown.
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, hts.URL, slowSpec()))
	}
	// Wait until a job is genuinely running so shutdown exercises the
	// engine interrupt path, not just queue settlement.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no job reached running state")
		}
		running := false
		for _, id := range ids {
			if j, ok := srv.store.get(id); ok && j.State() == StateRunning {
				running = true
			}
		}
		if running {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		j, _ := srv.store.get(id)
		if st := j.State(); st != StateCancelled {
			t.Errorf("job %s after shutdown = %s, want cancelled", id, st)
		}
		if !errors.Is(j.Err(), statsat.ErrInterrupted) && j.Err() == nil {
			t.Errorf("job %s error = %v", id, j.Err())
		}
	}

	// Submissions are refused after shutdown.
	body, _ := json.Marshal(quickSpec("sat"))
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown = %s, want 503", resp.Status)
	}
}

func TestJobTimeoutSettlesCancelled(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 4})
	sp := slowSpec()
	sp.TimeoutMs = 300
	id := submit(t, hts.URL, sp)
	j := waitTerminal(t, srv, id)
	if st := j.State(); st != StateCancelled {
		t.Fatalf("timed-out job state = %s, want cancelled", st)
	}
	if !errors.Is(j.Err(), statsat.ErrInterrupted) {
		t.Fatalf("timed-out job error = %v, want ErrInterrupted", j.Err())
	}
	out := j.Outcome()
	if out == nil || !out.Interrupted || out.InterruptCause == "" {
		t.Fatalf("timed-out outcome = %+v", out)
	}
}

func TestQuickJobCompletesWithCorrectKey(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 2, MaxJobs: 4})
	id := submit(t, hts.URL, quickSpec("statsat"))
	j := waitTerminal(t, srv, id)
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %s (err %v)", st, j.Err())
	}
	st := getStatus(t, hts.URL, id)
	if st.Outcome == nil || len(st.Outcome.Keys) == 0 {
		t.Fatalf("outcome = %+v, want at least one key", st.Outcome)
	}
	correct := false
	for _, k := range st.Outcome.Keys {
		if k.Correct {
			correct = true
		}
	}
	if !correct {
		t.Errorf("no recovered key marked correct: %+v", st.Outcome.Keys)
	}
	if st.Progress == nil || st.Progress.Iterations == 0 {
		t.Errorf("progress = %+v, want non-zero iterations", st.Progress)
	}
	if st.Finished == "" || st.Started == "" || st.Created == "" {
		t.Errorf("timestamps missing: %+v", st)
	}
}

func TestNetlistUploadJob(t *testing.T) {
	src, key := lockedC17Source(t, 3)
	srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 4})
	id := submit(t, hts.URL, Spec{
		Attack: "sat", Netlist: src, Key: key,
		Options: SpecOptions{MaxIter: 500},
	})
	j := waitTerminal(t, srv, id)
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %s (err %v)", st, j.Err())
	}
	out := j.Outcome()
	if out == nil || len(out.Keys) != 1 || !out.Keys[0].Correct {
		t.Fatalf("outcome = %+v, want one correct key", out)
	}
}

// TestNetlistUploadDeclaredLastFirst: a Verilog upload whose 20,000
// gates are each declared before their driver is admitted at once and
// attacked. A parser that re-scanned the pending gates once per pass
// took about 44 s on it, inside the POST handler.
func TestNetlistUploadDeclaredLastFirst(t *testing.T) {
	const n = 20000
	var sb strings.Builder
	sb.WriteString("module chain (a, keyinput0, y);\n  input a, keyinput0;\n  output y;\n  buf (y, w0);\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&sb, "  not (w%d, w%d);\n", i, i+1)
	}
	fmt.Fprintf(&sb, "  xor (w%d, a, keyinput0);\nendmodule\n", n-1)
	srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 4})
	start := time.Now()
	id := submit(t, hts.URL, Spec{
		Attack: "sat", Netlist: sb.String(), Format: "verilog", Key: "1",
		Options: SpecOptions{MaxIter: 500},
	})
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("submitting a %d-gate netlist declared last-first took %v", n, el)
	}
	j := waitTerminal(t, srv, id)
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %s (err %v)", st, j.Err())
	}
	if out := j.Outcome(); out == nil || len(out.Keys) != 1 || !out.Keys[0].Correct {
		t.Fatalf("outcome = %+v, want one correct key", out)
	}
}

func TestAPIErrors(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 1, MaxJobs: 4})

	post := func(body string) *http.Response {
		resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post(`{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON = %s, want 400", resp.Status)
	}
	if resp := post(`{"no_such_field": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field = %s, want 400", resp.Status)
	}
	// Retired options (solver racing, concurrent StatSAT instances)
	// are unknown fields like any other.
	if resp := post(`{"benchmark": "c17", "options": {"portfolio_workers": 4, "portfolio_racers": 2}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("retired racing options = %s, want 400", resp.Status)
	}
	if resp := post(`{"benchmark": "c17", "options": {"parallel": true}}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("retired parallel option = %s, want 400", resp.Status)
	}
	if resp := post(`{"benchmark": "c432"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid spec = %s, want 400", resp.Status)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	resp := post(`{"benchmark": "c432"}`)
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
		t.Errorf("error envelope = %+v (%v)", envelope, err)
	}

	for _, path := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/trace"} {
		r, err := http.Get(hts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %s, want 404", path, r.Status)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, hts.URL+"/v1/jobs/j999999", nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown = %s, want 404", r.Status)
	}
}

func TestBodyTooLarge(t *testing.T) {
	_, hts := testServer(t, Config{Workers: 1, MaxJobs: 4, MaxBodyBytes: 64})
	body, _ := json.Marshal(Spec{Benchmark: "c17", Netlist: strings.Repeat("x", 1024)})
	resp, err := http.Post(hts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body = %s, want 413", resp.Status)
	}
}

func TestHealthzAndList(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 4})

	resp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status    string `json:"status"`
		Accepting bool   `json:"accepting"`
		Workers   int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || !health.Accepting || health.Workers != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	id1 := submit(t, hts.URL, quickSpec("sat"))
	id2 := submit(t, hts.URL, quickSpec("psat"))
	waitTerminal(t, srv, id1)
	waitTerminal(t, srv, id2)

	lresp, err := http.Get(hts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Jobs) != 2 || list.Jobs[0].ID != id1 || list.Jobs[1].ID != id2 {
		t.Fatalf("list = %+v", list.Jobs)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 8})
	// Occupy the single worker, then queue a second job.
	blocker := submit(t, hts.URL, slowSpec())
	queued := submit(t, hts.URL, slowSpec())

	req, _ := http.NewRequest(http.MethodDelete, hts.URL+"/v1/jobs/"+queued, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("queued job after DELETE = %s, want cancelled", st.State)
	}
	if st.Outcome != nil {
		t.Errorf("queued job has an outcome: %+v", st.Outcome)
	}
	j, _ := srv.store.get(queued)
	if !errors.Is(j.Err(), statsat.ErrInterrupted) {
		// A queued cancellation never entered the engine; its error is
		// the raw cause, which need not match ErrInterrupted. Verify it
		// is at least non-nil.
		if j.Err() == nil {
			t.Error("cancelled queued job has nil error")
		}
	}

	// Unblock the worker for teardown.
	breq, _ := http.NewRequest(http.MethodDelete, hts.URL+"/v1/jobs/"+blocker, nil)
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
}

// TestSettledJobReleasesChip pins what a settled job keeps. On each
// path that settles a job (a run that finishes, a cancellation while
// queued, and recovery of a terminal job from the log) the job must
// drop its materialized netlist, key and chip, and its Status must
// still name its attack and circuit.
func TestSettledJobReleasesChip(t *testing.T) {
	wantCircuit := func(sp Spec) CircuitInfo {
		t.Helper()
		mat, err := sp.materialize()
		if err != nil {
			t.Fatal(err)
		}
		return mat.circuit
	}
	released := func(path string, j *Job, attack string, circ CircuitInfo, state State) {
		t.Helper()
		<-j.Done()
		j.mu.Lock()
		mat := j.mat
		j.mu.Unlock()
		if mat != nil {
			t.Errorf("%s: settled job keeps its materialized netlist, key and chip", path)
		}
		st := j.Status()
		if st.State != state || st.Attack != attack || st.Circuit != circ {
			t.Errorf("%s: status %s %s %+v, want %s %s %+v", path, st.State, st.Attack, st.Circuit, state, attack, circ)
		}
	}

	srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 8})
	done := waitTerminal(t, srv, submit(t, hts.URL, quickSpec("sat")))
	released("finished", done, "sat", wantCircuit(quickSpec("sat")), StateDone)
	if st := getStatus(t, hts.URL, done.ID); st.Outcome == nil || len(st.Outcome.Keys) != 1 || !st.Outcome.Keys[0].Correct {
		t.Errorf("finished job's status lost its outcome: %+v", st.Outcome)
	}

	blocker := submit(t, hts.URL, slowSpec())
	queued, _ := srv.store.get(submit(t, hts.URL, slowSpec()))
	queued.Cancel(errors.New("test cancel"))
	released("cancelled while queued", queued, "statsat", wantCircuit(slowSpec()), StateCancelled)
	b, _ := srv.store.get(blocker)
	b.Cancel(errors.New("test teardown"))
	<-b.Done()

	spec, err := json.Marshal(quickSpec("psat"))
	if err != nil {
		t.Fatal(err)
	}
	h := &jobHistory{id: "j9", spec: spec, queued: true, state: StateDone, outcome: &Outcome{Iterations: 3}}
	j, err := h.rebuild(16)
	if err != nil {
		t.Fatal(err)
	}
	released("recovered terminal", j, "psat", wantCircuit(quickSpec("psat")), StateDone)
}

func TestStoreEvictionOverHTTP(t *testing.T) {
	srv, hts := testServer(t, Config{Workers: 2, MaxJobs: 2})
	a := submit(t, hts.URL, quickSpec("sat"))
	waitTerminal(t, srv, a)
	b := submit(t, hts.URL, quickSpec("sat"))
	waitTerminal(t, srv, b)
	c := submit(t, hts.URL, quickSpec("sat"))
	waitTerminal(t, srv, c)

	resp, err := http.Get(hts.URL + "/v1/jobs/" + a)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job GET = %s, want 404", resp.Status)
	}
}

// TestTraceStreamReplaysForLateSubscriber verifies a subscriber that
// attaches after completion still receives the buffered trace: all of
// it under the default bound, and exactly the newest TraceBuffer events
// once a short bound has wrapped the replay ring.
func TestTraceStreamReplaysForLateSubscriber(t *testing.T) {
	fetch := func(t *testing.T, base, id string) []trace.Event {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		var evs []trace.Event
		for {
			var ev trace.Event
			if err := dec.Decode(&ev); err != nil {
				break
			}
			evs = append(evs, ev)
		}
		if len(evs) == 0 {
			t.Fatal("no replayed events")
		}
		return evs
	}

	t.Run("whole", func(t *testing.T) {
		srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 4})
		id := submit(t, hts.URL, quickSpec("statsat"))
		waitTerminal(t, srv, id)
		evs := fetch(t, hts.URL, id)
		if evs[0].Type != trace.AttackStart {
			t.Errorf("first replayed event = %s, want attack_start", evs[0].Type)
		}
		saw := map[trace.EventType]bool{}
		for _, ev := range evs {
			saw[ev.Type] = true
		}
		for _, want := range []trace.EventType{trace.IterStart, trace.AttackEnd} {
			if !saw[want] {
				t.Errorf("replay missing %s (got %v)", want, evs)
			}
		}
	})

	t.Run("wrapped", func(t *testing.T) {
		const bound = 8
		srv, hts := testServer(t, Config{Workers: 1, MaxJobs: 4, TraceBuffer: bound})
		id := submit(t, hts.URL, quickSpec("sat"))
		waitTerminal(t, srv, id)
		evs := fetch(t, hts.URL, id)
		if len(evs) != bound {
			t.Fatalf("replayed %d events, want the last %d", len(evs), bound)
		}
		last := evs[bound-1]
		if last.Type != trace.AttackEnd {
			t.Errorf("last replayed event = %s, want attack_end", last.Type)
		}
		if last.Seq <= bound {
			t.Fatalf("job emitted %d events; the ring of %d never wrapped", last.Seq, bound)
		}
		for i, ev := range evs {
			if want := last.Seq - int64(bound-1-i); ev.Seq != want {
				t.Fatalf("replayed event %d has seq %d, want %d", i, ev.Seq, want)
			}
		}
		st := getStatus(t, hts.URL, id)
		if st.TraceBuffered != bound || st.TraceDropped != last.Seq-bound {
			t.Errorf("status trace_buffered %d trace_dropped %d, want %d and %d",
				st.TraceBuffered, st.TraceDropped, bound, last.Seq-bound)
		}
	})
}

// TestSubmitRacingShutdown races one submission against Shutdown, 300
// rounds on the in-memory fabric and 300 on the durable one. Admission
// runs outside Server.mu, so Shutdown can land between its accepting
// check and its queue hand-off. The client must still get 202 or 503;
// once Shutdown returns, every retained job is terminal and a refused
// one is gone; and a server reopened on the data directory lists the
// accepted job as settled, has nothing to resume, and never brings
// back a refused one.
func TestSubmitRacingShutdown(t *testing.T) {
	body, err := json.Marshal(quickSpec("sat"))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	round := func(t *testing.T, dir string) int {
		t.Helper()
		cfg := Config{Workers: 1, MaxJobs: 4, DataDir: dir}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start(context.Background())
		delay := time.Duration(rng.Int63n(int64(500 * time.Microsecond)))
		rec := httptest.NewRecorder()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		}()
		time.Sleep(delay)
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Fatal(err)
		}
		for _, j := range srv.store.list() {
			if !j.State().Terminal() {
				t.Fatalf("job %s is %s after Shutdown returned", j.ID, j.State())
			}
		}
		wg.Wait()
		want := 0
		switch rec.Code {
		case http.StatusAccepted:
			want = 1
		case http.StatusServiceUnavailable:
		default:
			t.Fatalf("submission racing Shutdown got %d: %s", rec.Code, rec.Body)
		}
		if n := len(srv.store.list()); n != want {
			t.Fatalf("HTTP %d left %d jobs in the store", rec.Code, n)
		}
		if dir == "" {
			return rec.Code
		}
		reopened, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Shutdown(sctx)
		if len(reopened.resume) != 0 {
			t.Fatalf("HTTP %d: reopened server resumes %d job(s)", rec.Code, len(reopened.resume))
		}
		if n := len(reopened.store.list()); n != want {
			t.Fatalf("HTTP %d: reopened server lists %d jobs", rec.Code, n)
		}
		return rec.Code
	}
	for _, persistent := range []bool{false, true} {
		name := "memory"
		if persistent {
			name = "wal"
		}
		t.Run(name, func(t *testing.T) {
			accepted := 0
			for i := 0; i < 300; i++ {
				dir := ""
				if persistent {
					dir = t.TempDir()
				}
				if round(t, dir) == http.StatusAccepted {
					accepted++
				}
			}
			t.Logf("%d of 300 submissions accepted", accepted)
		})
	}
}

// TestShutdownBeforeStart checks that a server shut down before it
// started stays shut: Shutdown closed its WAL, so a later Start must
// not serve on it. The submission gets 503, and a server reopened on
// the data directory lists no job.
func TestShutdownBeforeStart(t *testing.T) {
	body, err := json.Marshal(quickSpec("sat"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, MaxJobs: 4, DataDir: t.TempDir()}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	srv.Start(context.Background())
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submission after Shutdown and Start got %d, want 503: %s", rec.Code, rec.Body)
	}
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	reopened, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Shutdown(sctx)
	if n := len(reopened.store.list()); n != 0 {
		t.Fatalf("reopened server lists %d job(s), want none", n)
	}
}
