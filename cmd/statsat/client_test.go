package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"statsat/internal/server"
	"statsat/internal/trace"
)

// shortDelays shrinks the backoff schedule so retry tests run in
// milliseconds, restoring the real schedule afterwards.
func shortDelays(t *testing.T) {
	t.Helper()
	saved := retryDelays
	retryDelays = []time.Duration{time.Millisecond, 2 * time.Millisecond}
	t.Cleanup(func() { retryDelays = saved })
}

func TestWithBackoffRetriesTransientOnly(t *testing.T) {
	shortDelays(t)
	ctx := context.Background()

	// Transient failures burn through the whole schedule...
	calls := 0
	err := withBackoff(ctx, func() error {
		calls++
		return transientError{errors.New("connection refused")}
	})
	if err == nil || calls != len(retryDelays)+1 {
		t.Fatalf("exhausted backoff: err=%v calls=%d, want %d", err, calls, len(retryDelays)+1)
	}

	// ...success mid-schedule stops early...
	calls = 0
	err = withBackoff(ctx, func() error {
		calls++
		if calls < 2 {
			return transientError{errors.New("connection refused")}
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("retry-then-success: err=%v calls=%d", err, calls)
	}

	// ...and a definitive server answer is never retried.
	calls = 0
	final := errors.New("server: 400 Bad Request: unknown attack")
	err = withBackoff(ctx, func() error {
		calls++
		return final
	})
	if err != final || calls != 1 {
		t.Fatalf("non-transient: err=%v calls=%d", err, calls)
	}
}

func TestWithBackoffStopsOnContextCancel(t *testing.T) {
	saved := retryDelays
	retryDelays = []time.Duration{time.Hour}
	t.Cleanup(func() { retryDelays = saved })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	start := time.Now()
	err := withBackoff(ctx, func() error {
		calls++
		return transientError{errors.New("connection refused")}
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled backoff slept through its schedule")
	}
}

// flakyHandler kills the first n connections at the TCP level (a
// hijack-and-close looks to the client exactly like a daemon that is
// not accepting yet), then delegates.
func flakyHandler(n int32, next http.Handler) (http.Handler, *int32) {
	var calls int32
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&calls, 1) <= n {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		next.ServeHTTP(w, r)
	}), &calls
}

func TestSubmitJobRetriesConnectFailures(t *testing.T) {
	shortDelays(t)
	accept := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": "j000042"})
	})
	h, calls := flakyHandler(2, accept)
	hts := httptest.NewServer(h)
	defer hts.Close()

	id, err := submitJob(context.Background(), hts.URL, &server.Spec{Attack: "sat"})
	if err != nil {
		t.Fatalf("submit through flaky connects: %v", err)
	}
	if id != "j000042" || *calls != 3 {
		t.Fatalf("id=%q calls=%d", id, *calls)
	}
}

func TestSubmitJobDoesNotRetryRejection(t *testing.T) {
	shortDelays(t)
	var calls int32
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		atomic.AddInt32(&calls, 1)
		http.Error(w, `{"error":"unknown attack"}`, http.StatusBadRequest)
	}))
	defer hts.Close()

	_, err := submitJob(context.Background(), hts.URL, &server.Spec{Attack: "nope"})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want one non-retried rejection", err, calls)
	}
}

func TestFollowTraceRetriesConnect(t *testing.T) {
	shortDelays(t)
	stream := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		// Empty stream: the client sees EOF and returns nil.
	})
	h, calls := flakyHandler(2, stream)
	hts := httptest.NewServer(h)
	defer hts.Close()

	if err := followTrace(context.Background(), hts.URL, "j000001", nil); err != nil {
		t.Fatalf("follow through flaky connects: %v", err)
	}
	if *calls != 3 {
		t.Fatalf("calls=%d, want 3", *calls)
	}
}

// TestFollowTraceWritesTraceSinks follows a served three-event stream
// into the sinks -trace and -v build: the -trace file must be
// byte-identical to the served body, and the text sink must render
// each event as its String form.
func TestFollowTraceWritesTraceSinks(t *testing.T) {
	events := []trace.Event{
		{Seq: 1, TNs: 10, Type: trace.AttackStart, Attack: "sat", Instance: -1},
		{Seq: 2, TNs: 2500, Type: trace.IterStart, Instance: 0, Iter: 1, OracleQueries: 3},
		{Seq: 3, TNs: 91000, Type: trace.AttackEnd, Instance: -1,
			Totals: &trace.TotalsInfo{Keys: 1, Iterations: 1, OracleQueries: 3, DurationNs: 91000}},
	}
	var served bytes.Buffer
	enc := json.NewEncoder(&served)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	hts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(served.Bytes())
	}))
	defer hts.Close()

	path := filepath.Join(t.TempDir(), "out.jsonl")
	file, closeTrace, err := openTrace(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := followTrace(context.Background(), hts.URL, "j000001", trace.Multi(file, trace.NewText(&text))); err != nil {
		t.Fatal(err)
	}
	closeTrace()

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, served.Bytes()) {
		t.Errorf("-trace file differs from the served stream:\ngot:  %s\nwant: %s", got, served.Bytes())
	}
	var want strings.Builder
	for _, ev := range events {
		want.WriteString(ev.String() + "\n")
	}
	if text.String() != want.String() {
		t.Errorf("text sink:\ngot:  %q\nwant: %q", text.String(), want.String())
	}
}
