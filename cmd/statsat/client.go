package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"statsat/internal/server"
	"statsat/internal/trace"
)

// clientOptions carries the flag values the -server submit path needs.
type clientOptions struct {
	serverURL string
	in        string
	format    string
	key       string
	eps       float64
	attack    string
	seed      int64
	tracer    trace.Tracer // -trace and -v sinks; nil when neither is set
	opts      server.SpecOptions
}

// runServer submits the job to a statsatd daemon instead of attacking
// locally: it uploads the netlist inline, follows the NDJSON trace
// stream into the same sinks a local run writes (-trace, -v), and
// prints the final outcome. Cancelling ctx (Ctrl-C) DELETEs the job so the daemon
// interrupts the attack and the partial result is still reported.
// Returns the process exit code: 0 clean, 1 interrupted or failed.
func runServer(ctx context.Context, co clientOptions) int {
	src, err := os.ReadFile(co.in)
	if err != nil {
		return fail(err)
	}
	format := co.format
	if format == "" && strings.HasSuffix(co.in, ".v") {
		format = "verilog"
	}
	sp := server.Spec{
		Attack:  co.attack,
		Netlist: string(src),
		Format:  format,
		Key:     co.key,
		Eps:     co.eps,
		Seed:    co.seed,
		Options: co.opts,
	}
	base := strings.TrimSuffix(co.serverURL, "/")

	id, err := submitJob(ctx, base, &sp)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "statsat: job %s submitted to %s\n", id, base)

	// On Ctrl-C the stream request dies with ctx; cancel the job
	// server-side so it settles (with its best-effort partial outcome)
	// instead of running on unobserved.
	streamErr := followTrace(ctx, base, id, co.tracer)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "statsat: interrupted — cancelling job", id)
		cancelJob(base, id)
	} else if streamErr != nil {
		fmt.Fprintln(os.Stderr, "statsat: trace stream:", streamErr)
	}

	st, err := fetchStatus(base, id)
	if err != nil {
		return fail(err)
	}
	return reportStatus(st)
}

// retryDelays is the jitterless backoff schedule between connect
// attempts: three tries total, doubling the pause. Deterministic on
// purpose — the client is a CLI talking to one daemon, so reproducible
// timing beats thundering-herd folklore at this scale.
var retryDelays = []time.Duration{250 * time.Millisecond, 500 * time.Millisecond}

// transientError marks a failure worth retrying: the request never
// produced a response (daemon still binding its socket, connection
// refused mid-restart). Anything the server actually said — a 4xx spec
// rejection, a 429 store-full — is authoritative and never retried.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// withBackoff runs attempt up to len(retryDelays)+1 times, sleeping
// the backoff schedule between tries. Only transientError retries;
// ctx cancellation cuts the wait short and returns the last failure.
func withBackoff(ctx context.Context, attempt func() error) error {
	for i := 0; ; i++ {
		err := attempt()
		var te transientError
		if err == nil || !errors.As(err, &te) || i == len(retryDelays) {
			return err
		}
		fmt.Fprintf(os.Stderr, "statsat: %v — retrying in %s\n", err, retryDelays[i])
		t := time.NewTimer(retryDelays[i])
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}

// transient classifies a client.Do failure: a context-driven abort is
// final, everything else (the request never reached the server) is
// worth another attempt.
func transient(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return err
	}
	return transientError{err}
}

// submitJob POSTs the spec and returns the assigned job ID, retrying
// connect-level failures on the backoff schedule (the daemon may still
// be starting, or mid-restart on its durable data directory).
func submitJob(ctx context.Context, base string, sp *server.Spec) (string, error) {
	body, err := json.Marshal(sp)
	if err != nil {
		return "", err
	}
	var id string
	err = withBackoff(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return transient(ctx, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return apiError(resp)
		}
		var reply struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return err
		}
		id = reply.ID
		return nil
	})
	return id, err
}

// followTrace streams the job's NDJSON trace until the job finishes or
// ctx is cancelled, emitting each event into tr (nil drops them). The
// events keep the daemon's seq and t_ns, so a -trace file matches the
// served stream and -v reads as it does on a local run.
// The initial connect retries on the same backoff schedule as the
// submit; once the stream is open, a mid-stream error is final (the
// follow-up status fetch reports the job's fate either way).
func followTrace(ctx context.Context, base, id string, tr trace.Tracer) error {
	var resp *http.Response
	err := withBackoff(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/trace", nil)
		if err != nil {
			return err
		}
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			return transient(ctx, err)
		}
		if r.StatusCode != http.StatusOK {
			err := apiError(r)
			r.Body.Close()
			return err
		}
		resp = r
		return nil
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev trace.Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF || ctx.Err() != nil {
				return nil
			}
			return err
		}
		if tr != nil {
			tr.Emit(ev)
		}
	}
}

// cancelJob issues the DELETE; errors are advisory (the daemon may
// already be gone), so it only logs.
func cancelJob(base, id string) {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statsat: cancel:", err)
		return
	}
	resp.Body.Close()
}

// fetchStatus GETs the job's final status. It runs without the command
// context on purpose: after Ctrl-C the job's partial result is exactly
// what we came for.
func fetchStatus(base, id string) (*server.Status, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// reportStatus prints the outcome in the local report style and maps
// the job state to the exit code.
func reportStatus(st *server.Status) int {
	if st.Outcome == nil {
		fmt.Printf("job %s: %s (no outcome)\n", st.ID, st.State)
		if st.State == server.StateFailed || st.State == server.StateCancelled {
			return 1
		}
		return 0
	}
	out := st.Outcome
	if out.Interrupted {
		fmt.Fprintln(os.Stderr, "statsat: interrupted — results below are best-effort")
	}
	fmt.Printf("%s (%s on %s): %d key(s), %d iterations, %d queries\n",
		st.Attack, st.State, st.Circuit.Name, len(out.Keys), out.Iterations, out.OracleQueries)
	for i, k := range out.Keys {
		marker := ""
		if k.Correct {
			marker = "  (CORRECT)"
		}
		if k.FM != 0 || k.HD != 0 {
			fmt.Printf("key %d: FM=%.4f HD=%.4f iters=%d %s%s\n", i, k.FM, k.HD, k.Iterations, k.Key, marker)
		} else {
			fmt.Printf("key %d: iters=%d %s%s\n", i, k.Iterations, k.Key, marker)
		}
	}
	if st.State != server.StateDone {
		return 1
	}
	return 0
}

// apiError turns a non-2xx response into an error carrying the
// server's JSON error envelope when present.
func apiError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var envelope struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &envelope) == nil && envelope.Error != "" {
		return fmt.Errorf("server: %s: %s", resp.Status, envelope.Error)
	}
	return fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(b)))
}
