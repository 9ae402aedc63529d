package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"statsat/internal/trace"
	"statsat/internal/wal"
)

// persistServer starts a Server with the durable fabric rooted at dir.
func persistServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := openPersist(t, dir, cfg)
	return srv, serve(t, srv)
}

// openPersist creates a server on dir without starting it: recovered
// jobs are in its store, and no worker has taken one yet. Hand it to
// serve, which also shuts it down.
func openPersist(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.DataDir = dir
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// serve starts srv with an HTTP front end; cleanup closes the front
// end and shuts srv down.
func serve(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	hts := httptest.NewServer(srv)
	t.Cleanup(func() {
		hts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer scancel()
		if err := srv.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		cancel()
	})
	return hts
}

// copyTree byte-copies src into dst. Copying while the WAL writer is
// mid-append is deliberate: the copy is exactly the on-disk image a
// crash would leave, torn tail included.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatalf("copying crash image: %v", err)
	}
}

// resumableSpec is an antisat-locked c880 job: the lock forces a
// distinguishing iteration per wrong key pattern (~2^(k/2) of them),
// so the run has plenty of Step boundaries to crash at while still
// completing in test time.
func resumableSpec(attack string, eps float64) Spec {
	return Spec{
		Attack:    attack,
		Benchmark: "c880",
		Scale:     8,
		Lock:      "antisat",
		KeyBits:   10,
		Seed:      5,
		Eps:       eps,
		Options:   SpecOptions{Ns: 20, MaxIter: 1 << 20},
	}
}

// stripVolatile clears the fields of an outcome that legitimately vary
// across runs (wall time); everything else must be byte-identical
// between an uninterrupted run and a crash-resumed one.
func stripVolatile(out *Outcome) *Outcome {
	if out == nil {
		return nil
	}
	c := *out
	c.AttackNs = 0
	return &c
}

// TestRestartDeterminism is the acceptance-criteria flow for the
// durable fabric: run a job under persistence, capture a crash image
// of the data directory at a mid-run Step boundary (the third durable
// checkpoint, via the test-only checkpoint hook), let the original run
// to completion as the control, then boot a second server on the crash
// image and verify the resumed job's outcome — keys, iteration counts,
// oracle-query counts — is identical to the uninterrupted run's.
func TestRestartDeterminism(t *testing.T) {
	cases := []struct {
		attack string
		eps    float64
	}{
		{"sat", 0},
		{"psat", 0},
		{"appsat", 0},
		{"statsat", 0.01}, // noisy: resume must also restore the noise stream position
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.attack, func(t *testing.T) {
			t.Parallel()
			dirA, dirB := t.TempDir(), t.TempDir()
			var snapped bool
			cfg := Config{Workers: 1, MaxJobs: 8}
			// Snapshot the data directory inside the third checkpoint
			// sink call: the engine is blocked at the Step boundary, so
			// the image is exactly "crashed after iteration 3 became
			// durable" — deterministic, no polling race.
			cfg.ckptHook = func(jobID string, n int) {
				if n == 3 && !snapped {
					snapped = true
					copyTree(t, dirA, dirB)
				}
			}
			srv, hts := persistServer(t, dirA, cfg)
			id := submit(t, hts.URL, resumableSpec(tc.attack, tc.eps))

			// Control: the original life runs uninterrupted (the snapshot
			// is taken synchronously along the way).
			control := waitTerminal(t, srv, id)
			if st := control.State(); st != StateDone {
				t.Fatalf("control settled as %s (err %v)", st, control.Err())
			}
			if !snapped {
				t.Fatal("control finished in under three checkpoints; no crash image taken")
			}
			img, err := os.ReadFile(filepath.Join(dirB, "jobs.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(img, []byte(`"t":"ckpt"`)) {
				t.Fatal("crash image holds no checkpoint record")
			}
			for _, terminal := range []string{`"state":"done"`, `"state":"failed"`, `"state":"cancelled"`} {
				if bytes.Contains(img, []byte(terminal)) {
					t.Fatalf("crash image already holds %s: job finished before the snapshot", terminal)
				}
			}

			// Crash recovery: a fresh server on the image must resume the
			// job (listed non-terminal, re-enqueued, tape replayed) and
			// reach the exact same outcome. The tape is read before
			// Start: once a worker settles the job, it drops the tape.
			srv2 := openPersist(t, dirB, Config{Workers: 1, MaxJobs: 8})
			resumed, ok := srv2.store.get(id)
			taped := ok && len(resumed.tape) > 0
			serve(t, srv2)
			if !ok {
				t.Fatalf("job %s not recovered from the crash image", id)
			}
			if !taped {
				t.Error("recovered job carries no oracle tape")
			}
			select {
			case <-resumed.Done():
			case <-time.After(120 * time.Second):
				t.Fatalf("resumed job did not settle (state %s)", resumed.State())
			}
			if st := resumed.State(); st != StateDone {
				t.Fatalf("resumed job settled as %s (err %v)", st, resumed.Err())
			}

			want, got := stripVolatile(control.Outcome()), stripVolatile(resumed.Outcome())
			wb, _ := json.Marshal(want)
			gb, _ := json.Marshal(got)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("resumed outcome diverged from control:\ncontrol: %s\nresumed: %s", wb, gb)
			}
			if len(got.Keys) == 0 {
				t.Fatal("no key recovered")
			}
			if tc.attack != "psat" && !got.Keys[0].Correct {
				t.Errorf("resumed key not marked correct: %+v", got.Keys[0])
			}
		})
	}
}

// TestSettledRecoveredJobDropsTape checks that a recovered job lets
// go of its oracle tape as it settles, like its materialized chip: once
// by running to completion, once by a Cancel while still queued.
func TestSettledRecoveredJobDropsTape(t *testing.T) {
	dirA, image := t.TempDir(), t.TempDir()
	var snapped bool
	cfg := Config{Workers: 1, MaxJobs: 8}
	cfg.ckptHook = func(jobID string, n int) {
		if n == 3 && !snapped {
			snapped = true
			copyTree(t, dirA, image)
		}
	}
	srv, hts := persistServer(t, dirA, cfg)
	id := submit(t, hts.URL, resumableSpec("sat", 0))
	waitTerminal(t, srv, id)
	if !snapped {
		t.Fatal("job finished in under three checkpoints; no crash image taken")
	}
	held := func(j *Job) (tape int, mat bool) {
		j.mu.Lock()
		defer j.mu.Unlock()
		return len(j.tape), j.mat != nil
	}
	for _, cancel := range []bool{false, true} {
		dir := t.TempDir()
		copyTree(t, image, dir)
		srv2 := openPersist(t, dir, Config{Workers: 1, MaxJobs: 8})
		j, ok := srv2.store.get(id)
		if !ok {
			serve(t, srv2)
			t.Fatalf("job %s not recovered from the crash image", id)
		}
		if n, _ := held(j); n == 0 {
			t.Error("recovered job carries no oracle tape")
		}
		if cancel {
			j.Cancel(errors.New("test: cancelled while queued"))
		}
		serve(t, srv2)
		select {
		case <-j.Done():
		case <-time.After(120 * time.Second):
			t.Fatalf("recovered job did not settle (state %s)", j.State())
		}
		want := StateDone
		if cancel {
			want = StateCancelled
		}
		if st := j.State(); st != want {
			t.Fatalf("recovered job settled as %s, want %s (err %v)", st, want, j.Err())
		}
		if n, mat := held(j); n != 0 || mat {
			t.Errorf("settled (%s) recovered job still holds %d tape records (chip held: %v)", want, n, mat)
		}
	}
}

// TestRecoveryListsTerminalJobs verifies the quieter half of recovery:
// finished jobs come back listed with their outcome, the health
// endpoint reports the persistent census, and the trace endpoint
// serves the durable spill for a job whose in-memory ring died with
// the previous process.
func TestRecoveryListsTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	srv, hts := persistServer(t, dir, Config{Workers: 2, MaxJobs: 8})
	id := submit(t, hts.URL, quickSpec("statsat"))
	j := waitTerminal(t, srv, id)
	if st := j.State(); st != StateDone {
		t.Fatalf("job settled as %s (err %v)", st, j.Err())
	}
	firstOutcome := j.Outcome()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	hts.Close()

	srv2, hts2 := persistServer(t, dir, Config{Workers: 2, MaxJobs: 8})
	st := getStatus(t, hts2.URL, id)
	if st.State != StateDone {
		t.Fatalf("recovered job state = %s, want done", st.State)
	}
	if st.Outcome == nil || len(st.Outcome.Keys) == 0 {
		t.Fatalf("recovered outcome = %+v", st.Outcome)
	}
	wb, _ := json.Marshal(stripVolatile(firstOutcome))
	gb, _ := json.Marshal(stripVolatile(st.Outcome))
	if !bytes.Equal(wb, gb) {
		t.Fatalf("recovered outcome changed:\nbefore: %s\nafter:  %s", wb, gb)
	}
	if len(srv2.store.list()) != 1 {
		t.Fatalf("recovered store len = %d", len(srv2.store.list()))
	}

	// Health census over the recovered fabric.
	resp, err := http.Get(hts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Jobs        int            `json:"jobs"`
		States      map[string]int `json:"states"`
		Persistence bool           `json:"persistence"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.Persistence || health.Jobs != 1 || health.States["done"] != 1 || health.States["running"] != 0 {
		t.Fatalf("healthz after recovery = %+v", health)
	}

	// The trace spill outlives the process that buffered the ring.
	tresp, err := http.Get(hts2.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if ct := tresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q", ct)
	}
	dec := json.NewDecoder(tresp.Body)
	saw := map[trace.EventType]bool{}
	for {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			if err != io.EOF {
				t.Fatalf("decoding spilled trace: %v", err)
			}
			break
		}
		saw[ev.Type] = true
	}
	for _, want := range []trace.EventType{trace.AttackStart, trace.IterStart, trace.AttackEnd} {
		if !saw[want] {
			t.Errorf("spilled trace missing %s", want)
		}
	}
}

// TestTornWALTailRecovers ends a server life with garbage appended to
// the log (a torn final append) and verifies the next life opens it,
// truncates the tail and still lists the settled job.
func TestTornWALTailRecovers(t *testing.T) {
	dir := t.TempDir()
	srv, hts := persistServer(t, dir, Config{Workers: 1, MaxJobs: 4})
	id := submit(t, hts.URL, quickSpec("sat"))
	waitTerminal(t, srv, id)
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	hts.Close()

	walPath := filepath.Join(dir, "jobs.wal")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, hts2 := persistServer(t, dir, Config{Workers: 1, MaxJobs: 4})
	if len(srv2.store.list()) != 1 {
		t.Fatalf("store len after torn-tail recovery = %d", len(srv2.store.list()))
	}
	st := getStatus(t, hts2.URL, id)
	if st.State != StateDone || st.Outcome == nil {
		t.Fatalf("job after torn-tail recovery = %+v", st)
	}
}

// TestRebuildIgnoresRetiredOptions replays admission records as older
// servers logged them, with options this server no longer has:
// "portfolio_workers" and "portfolio_racers" (solver racing) and
// "parallel" (concurrent StatSAT instances). Submission refuses those
// fields (TestAPIErrors), but rebuild decodes logged specs leniently,
// so the old job still comes back — materialized exactly like the same
// spec without them.
func TestRebuildIgnoresRetiredOptions(t *testing.T) {
	for _, tc := range []struct {
		attack, retired string
	}{
		{"sat", `"portfolio_workers":4,"portfolio_racers":2,`},
		{"statsat", `"parallel":true,`},
	} {
		clean, err := json.Marshal(quickSpec(tc.attack))
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.Replace(clean, []byte(`"options":{`), []byte(`"options":{`+tc.retired), 1)
		if bytes.Equal(old, clean) {
			t.Fatalf("spec JSON has no options object to extend: %s", clean)
		}
		rebuild := func(spec []byte) *Job {
			t.Helper()
			h := &jobHistory{id: "j1", spec: spec}
			j, err := h.rebuild(16)
			if err != nil {
				t.Fatalf("rebuild(%s): %v", spec, err)
			}
			return j
		}
		got, want := rebuild(old), rebuild(clean)
		if !reflect.DeepEqual(got.Spec, want.Spec) {
			t.Errorf("%s: rebuilt spec = %+v, want %+v", tc.retired, got.Spec, want.Spec)
		}
		if got.mat.attack != want.mat.attack || got.mat.circuit != want.mat.circuit ||
			!reflect.DeepEqual(got.mat.key, want.mat.key) {
			t.Errorf("%s: materialized %s %+v key %v, want %s %+v key %v", tc.retired,
				got.mat.attack, got.mat.circuit, got.mat.key, want.mat.attack, want.mat.circuit, want.mat.key)
		}
		if got.State() != want.State() {
			t.Errorf("%s: rebuilt state = %s, want %s", tc.retired, got.State(), want.State())
		}
	}
}

// TestResumeDivergedTape resumes a statsat job whose logged tape does
// not match its trajectory. Such tapes come from a binary whose attacks
// have since changed their trajectories, or from an older daemon that
// ran the job with "parallel": true. Here the crash image's first tape
// record has one input bit flipped, so the journal abandons the tape at
// the first query and serves the live oracle. The job must still run
// to done with a key, log no tape record after the divergence, and
// say that it diverged: tape_diverged in its outcome and one daemon
// log line.
func TestResumeDivergedTape(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	var snapped bool
	cfg := Config{Workers: 1, MaxJobs: 8}
	cfg.ckptHook = func(jobID string, n int) {
		if n == 3 && !snapped {
			snapped = true
			copyTree(t, dirA, dirB)
		}
	}
	srv, hts := persistServer(t, dirA, cfg)
	id := submit(t, hts.URL, resumableSpec("statsat", 0.01))
	waitTerminal(t, srv, id)
	if !snapped {
		t.Fatal("job finished in under three checkpoints; no crash image taken")
	}

	walPath := filepath.Join(dirB, "jobs.wal")
	log, payloads, tapes := openTapeRecords(t, walPath)
	if len(tapes) == 0 {
		t.Fatal("crash image holds no tape record")
	}
	var first walRec
	if err := json.Unmarshal(payloads[tapes[0]], &first); err != nil {
		t.Fatal(err)
	}
	x := []byte(first.Tape.X)
	x[0] ^= '0' ^ '1'
	first.Tape.X = string(x)
	var err error
	if payloads[tapes[0]], err = json.Marshal(first); err != nil {
		t.Fatal(err)
	}
	if err := log.Rewrite(payloads); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	var (
		logMu sync.Mutex
		logs  []string
	)
	srv2, _ := persistServer(t, dirB, Config{Workers: 1, MaxJobs: 8,
		Logf: func(format string, args ...interface{}) {
			logMu.Lock()
			defer logMu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}})
	resumed, ok := srv2.store.get(id)
	if !ok {
		t.Fatalf("job %s not recovered from the crash image", id)
	}
	select {
	case <-resumed.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("resumed job did not settle (state %s)", resumed.State())
	}
	if st := resumed.State(); st != StateDone {
		t.Fatalf("resumed job settled as %s (err %v)", st, resumed.Err())
	}
	out := resumed.Outcome()
	if out == nil || len(out.Keys) == 0 {
		t.Fatalf("resumed job outcome = %+v, want a key", out)
	}
	if !out.TapeDiverged {
		t.Error("resumed job's outcome does not report tape_diverged")
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv2.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	logMu.Lock()
	diverged := 0
	for _, line := range logs {
		if strings.Contains(line, "job "+id+" diverged from its resume tape") {
			diverged++
		}
	}
	logMu.Unlock()
	if diverged != 1 {
		t.Errorf("daemon logged %d divergence lines for job %s, want 1:\n%s", diverged, id, strings.Join(logs, "\n"))
	}
	log, _, after := openTapeRecords(t, walPath)
	log.Close()
	if len(after) != len(tapes) {
		t.Errorf("log holds %d tape records after the diverged resume, want the %d recovered",
			len(after), len(tapes))
	}
}

// openTapeRecords opens the log at path and returns it with its
// records and the indices of the tape records among them.
func openTapeRecords(t *testing.T, path string) (*wal.Log, [][]byte, []int) {
	t.Helper()
	log, payloads, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var tapes []int
	for i, p := range payloads {
		var r walRec
		if err := json.Unmarshal(p, &r); err != nil {
			t.Fatal(err)
		}
		if r.T == recTape {
			tapes = append(tapes, i)
		}
	}
	return log, payloads, tapes
}

// TestFoldLogOrdersJobsByID feeds foldLog the job records of two
// concurrent admissions in the order opposite to their IDs: recovery
// must list them in ID order, the order the previous life listed them.
func TestFoldLogOrdersJobsByID(t *testing.T) {
	var payloads [][]byte
	for _, r := range []walRec{
		{T: recJob, ID: "j000002", At: 2},
		{T: recJob, ID: "j000001", At: 1},
		{T: recState, ID: "j000002", State: StateQueued},
		{T: recState, ID: "j000001", State: StateQueued},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, b)
	}
	hists, order, maxSeq := foldLog(payloads, t.Logf)
	if want := []string{"j000001", "j000002"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("recovered order = %v, want %v", order, want)
	}
	if maxSeq != 2 {
		t.Errorf("max sequence = %d, want 2", maxSeq)
	}
	for _, id := range order {
		if h := hists[id]; !h.queued || h.evicted {
			t.Errorf("history %s = %+v, want queued and not evicted", id, h)
		}
	}
}

// TestRestartKeepsListOrder takes 16 jobs from 4 concurrent clients on
// a persistent server, drains it, restarts on the same directory and
// requires the same IDs in the same order from GET /v1/jobs.
func TestRestartKeepsListOrder(t *testing.T) {
	list := func(base string) []string {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Jobs []Status `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(body.Jobs))
		for i, st := range body.Jobs {
			ids[i] = st.ID
		}
		return ids
	}

	dir := t.TempDir()
	srv, hts := persistServer(t, dir, Config{Workers: 2, MaxJobs: 32})
	attacks := []string{"sat", "psat", "appsat", "statsat"}
	ids := make([]string, 16)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(ids); k += 4 {
				id, err := trySubmit(hts.URL, quickSpec(attacks[k%4]))
				if err != nil {
					t.Error(err)
					return
				}
				ids[k] = id
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		waitTerminal(t, srv, id)
	}
	before := list(hts.URL)
	if len(before) != len(ids) {
		t.Fatalf("listed %d jobs, want %d", len(before), len(ids))
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	hts.Close()

	_, hts2 := persistServer(t, dir, Config{Workers: 2, MaxJobs: 32})
	if after := list(hts2.URL); !reflect.DeepEqual(after, before) {
		t.Fatalf("listed after restart:\n%v\nbefore:\n%v", after, before)
	}
}
