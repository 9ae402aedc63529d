package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"statsat/internal/server"
)

// The statsatd-jobs workload: closed-loop clients against an
// in-process statsatd. Each client submits a tiny job, follows its
// NDJSON trace to the end, then reads the outcome; it never retries a
// refused or failed job. Attack work is a small share of the CPU here:
// HTTP and spec decoding, the per-job trace streams, eviction and GC
// make up the rest.
//
// The durable fabric is measured where its cost does not depend on the
// disk: set-up restarts the daemon on the WAL an untimed first life
// left (replay and compaction). The timed phase runs on the in-memory
// fabric, because the WAL fsyncs every engine checkpoint and, on the
// shared disk the benchmark may write to, that made throughput swing
// from 145 to 510 jobs/s between runs of identical code.
const (
	svcClients = 2 // closed-loop clients; each waits on its job
	svcWorkers = 2 // statsatd worker pool
	// svcPassJobs is a pass's job count, split between the clients: a
	// pass has enough latency samples for its own p99 under the
	// percentile rule.
	svcPassJobs  = 100 * minBeyond
	svcFirstLife = 300 // jobs of the untimed first life (> the 256 retained)
	svcSetupReps = 7   // daemon restarts; setup_s is the median
)

// svcSpec is job k of a pass: c17 or c880 at scale 16 under 4-bit RLL,
// StatSAT at ε=1% with small budgets, every fourth one the SAT attack on
// an exact chip. The run seed picks the lock, chip and attack seeds.
func svcSpec(seed int64, k int) server.Spec {
	sp := server.Spec{
		Benchmark: "c17",
		Lock:      "rll",
		KeyBits:   4,
		LockSeed:  derive(seed, int64(k), tagLock),
		Seed:      derive(seed, int64(k), tagAttack),
	}
	if k%2 == 1 {
		sp.Benchmark, sp.Scale = "c880", 16
	}
	if k%4 == 3 {
		sp.Attack = "sat"
		return sp
	}
	sp.Attack, sp.Eps = "statsat", 0.01
	sp.Options = server.SpecOptions{Ns: 128, NSatis: 16, NEval: 64, NInst: 2}
	return sp
}

// daemon is one life of an in-process statsatd on a data directory.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	base string // http://host:port
	done chan error
}

// startDaemon builds the server on dir (replaying and compacting its
// WAL; "" keeps the in-memory fabric), starts the worker pool and
// serves it on a loopback port. replay is the CPU time of server.New,
// the WAL replay and compaction.
func startDaemon(ctx context.Context, dir string) (d *daemon, replay float64, err error) {
	var srv *server.Server
	replay = cpuSeconds(func() {
		srv, err = server.New(server.Config{Workers: svcWorkers, DataDir: dir})
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(ctx)
		return nil, 0, err
	}
	srv.Start(ctx)
	d = &daemon{srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, replay, nil
}

// stop drains the daemon: jobs first, so trace streams close, then the
// HTTP server; it waits for the serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if herr := d.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-d.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// svcClient is one closed-loop client; its transport is shared so the
// benchmark opens no more connections than it has vCPUs.
type svcClient struct {
	base string
	hc   *http.Client
}

func newHTTPClient() *http.Client {
	conns := svcClients
	if n := runtime.NumCPU(); n < conns {
		conns = n
	}
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// jobSample is one job as the client saw it.
type jobSample struct {
	state   string // terminal state; "refused" when admission was denied
	latency float64
	// Server-side split of the latency, from the client clock and the
	// job's created/started/finished timestamps.
	submit, queue, run, deliver float64
	events                      int   // NDJSON trace lines received
	dropped                     int64 // trace events the replay ring dropped
	attack                      string
	iterations                  int
	queries                     int64
	key                         string
	correct                     bool
	hd                          float64
}

func (s jobSample) sig() string {
	return fmt.Sprintf("%s it=%d q=%d key=%s correct=%v hd=%x", s.state, s.iterations, s.queries, s.key, s.correct, math.Float64bits(s.hd))
}

// ok reports whether the job completed with an outcome.
func (s jobSample) ok() bool { return s.state == string(server.StateDone) }

// do runs one job: submit, follow the trace to its end, read the
// outcome. A refused submission is recorded, never retried.
func (c *svcClient) do(ctx context.Context, k int, sp server.Spec) (jobSample, error) {
	s := jobSample{attack: sp.Attack, latency: math.Inf(1)}
	body, err := json.Marshal(sp)
	if err != nil {
		return s, err
	}
	t0 := now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return s, err
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		s.state = "refused"
		return s, nil
	case resp.StatusCode != http.StatusAccepted || err != nil:
		return s, fmt.Errorf("submit job %d: HTTP %d (%v)", k, resp.StatusCode, err)
	}

	if s.events, err = c.follow(ctx, sub.ID); err != nil {
		return s, err
	}
	st, err := c.status(ctx, sub.ID)
	if err != nil {
		return s, err
	}
	t1 := now()
	s.state = string(st.State)
	s.dropped = st.TraceDropped
	if s.submit, s.queue, s.run, s.deliver, err = splitLatency(t0, t1, st); err != nil {
		return s, fmt.Errorf("job %d: %w", k, err)
	}
	if o := st.Outcome; o != nil {
		s.iterations, s.queries = o.Iterations, o.OracleQueries+o.EvalQueries
		if len(o.Keys) > 0 {
			s.key, s.correct, s.hd = o.Keys[0].Key, o.Keys[0].Correct, o.Keys[0].HD
		}
	}
	if s.ok() {
		s.latency = t1.Sub(t0).Seconds()
	}
	return s, nil
}

// follow reads the job's live NDJSON trace until the server closes it
// at job settlement, counting the events.
func (c *svcClient) follow(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/trace", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("trace %s: HTTP %d", id, resp.StatusCode)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}

func (c *svcClient) status(ctx context.Context, id string) (server.Status, error) {
	var st server.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return st, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// healthy polls /healthz until it answers 200.
func (c *svcClient) healthy(ctx context.Context) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := c.hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// splitLatency divides a job's client-observed latency at the server's
// created, started and finished timestamps: submit (request until
// admission), queue, run, and deliver (settlement until the outcome
// reached the client). The server stamps wall-clock RFC3339Nano times,
// so the client times are compared on the wall clock too.
func splitLatency(sent, received time.Time, st server.Status) (submit, queue, run, deliver float64, err error) {
	var ts [3]time.Time
	for i, v := range []string{st.Created, st.Started, st.Finished} {
		if ts[i], err = time.Parse(time.RFC3339Nano, v); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("job %s timestamp %q: %w", st.ID, v, err)
		}
	}
	created, started, finished := ts[0], ts[1], ts[2]
	if started.Before(created) || finished.Before(started) {
		return 0, 0, 0, 0, fmt.Errorf("job %s timestamps out of order", st.ID)
	}
	return created.Sub(sent).Seconds(), started.Sub(created).Seconds(),
		finished.Sub(started).Seconds(), received.Sub(finished).Seconds(), nil
}

// runJobs has the clients work through jobs [0, n) of seed's list,
// client c taking every svcClients-th job from c.
func runJobs(ctx context.Context, c *svcClient, seed int64, n int) ([]jobSample, error) {
	out := make([]jobSample, n)
	errs := make([]error, svcClients)
	var wg sync.WaitGroup
	for ci := 0; ci < svcClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := ci; k < n; k += svcClients {
				s, err := c.do(ctx, k, svcSpec(seed, k))
				if err != nil {
					errs[ci] = err
					return
				}
				out[k] = s
			}
		}(ci)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// svcPass is one pass of svcPassJobs jobs.
type svcPass struct {
	samples         []jobSample
	cpu             float64
	wall            float64
	rt              rtDelta
	peak            uint64
	events, dropped int64 // trace lines received, ring evictions
}

func runService(ctx context.Context, cfg runConfig) (*outcomeSet, error) {
	hostStart, hostOK := readProcStat()
	wallStart := now()
	root, err := os.MkdirTemp("", "statsatd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	// First life, untimed: leaves the WAL and trace spill that every
	// restart below replays.
	tmpl := filepath.Join(root, "first")
	d, _, err := startDaemon(ctx, tmpl)
	if err != nil {
		return nil, err
	}
	c := &svcClient{base: d.base, hc: hc}
	if _, err := runJobs(ctx, c, derive(cfg.seed, tagEval), svcFirstLife); err != nil {
		d.stop()
		return nil, fmt.Errorf("first life: %w", err)
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("first life: %w", err)
	}

	// Set-up: restart on a fresh copy of the first life's data dir,
	// until /healthz answers.
	var setups, replays []float64
	for r := 0; r < svcSetupReps; r++ {
		dir := filepath.Join(root, fmt.Sprintf("life%d", r))
		if err := copyDir(tmpl, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		var replay float64
		setup := cpuSeconds(func() {
			if d, replay, err = startDaemon(ctx, dir); err != nil {
				return
			}
			err = (&svcClient{base: d.base, hc: hc}).healthy(ctx)
		})
		if err == nil {
			err = d.stop()
		} else if d != nil {
			d.stop()
		}
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		setups, replays = append(setups, setup), append(replays, replay)
	}

	// Timed phase, on the in-memory fabric: whole passes until the time
	// is up. Every metric is taken per pass and reported as the median
	// over the passes.
	if d, _, err = startDaemon(ctx, ""); err != nil {
		return nil, err
	}
	defer d.stop()
	c = &svcClient{base: d.base, hc: hc}
	heap := startHeapSampler()
	defer heap.stop()
	var passes []svcPass
	deadline := now().Add(cfg.seconds)
	for len(passes) == 0 || now().Before(deadline) {
		runtime.GC()
		heap.reset()
		r0, c0, w0 := readRuntime(), cpuNow(), now()
		samples, err := runJobs(ctx, c, cfg.seed, svcPassJobs)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passes), err)
		}
		p := svcPass{
			samples: samples,
			cpu:     (cpuNow() - c0).Seconds(),
			wall:    now().Sub(w0).Seconds(),
			rt:      readRuntime().since(r0),
			peak:    heap.peak(),
		}
		for _, s := range samples {
			p.events += int64(s.events)
			p.dropped += s.dropped
		}
		passes = append(passes, p)
	}

	// Checks: every pass reproduces the first job by job; exact-chip
	// SAT jobs return a correct key.
	correct, failed, refused, attempted := true, 0, 0, 0
	var submit, queue, run, deliver, p50s, p99s []float64
	for _, p := range passes {
		lat := make([]float64, len(p.samples))
		for k, s := range p.samples {
			attempted++
			lat[k] = s.latency
			if !s.ok() {
				failed++
				if s.state == "refused" {
					refused++
				}
				continue
			}
			submit, queue, run, deliver = append(submit, s.submit), append(queue, s.queue), append(run, s.run), append(deliver, s.deliver)
			if a, b := passes[0].samples[k].sig(), s.sig(); a != b {
				fmt.Fprintf(cfg.log, "perfbench: job %d not reproduced:\n  first pass %s\n  later pass %s\n", k, a, b)
				correct = false
			}
			if s.attack == "sat" && !s.correct {
				fmt.Fprintf(cfg.log, "perfbench: job %d: SAT attack on an exact chip returned a wrong key\n", k)
				correct = false
			}
		}
		p50, err := percentile(lat, 50)
		if err != nil {
			return nil, fmt.Errorf("job_p50_s: %w", err)
		}
		p99, err := percentile(lat, 99)
		if err != nil {
			return nil, fmt.Errorf("job_p99_s: %w", err)
		}
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	var iters, queries float64
	keyOK, hds := 0, []float64(nil)
	for _, s := range passes[0].samples {
		iters += float64(s.iterations)
		queries += float64(s.queries)
		if s.correct {
			keyOK++
		}
		if s.attack == "statsat" && s.key != "" {
			hds = append(hds, s.hd)
		}
	}
	per := func(f func(svcPass) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return median(v)
	}
	fmt.Fprintf(cfg.log, "perfbench: %d passes of %d jobs; set-up cpu_s %.4f; pass cpu_s %.3f\n",
		len(passes), svcPassJobs, setups, passCPUs(passes))

	m := map[string]float64{}
	if !cfg.trace {
		m["setup_s"] = median(setups)
		m["cpu_s"] = per(func(p svcPass) float64 { return p.cpu })
		m["jobs_per_s"] = per(func(p svcPass) float64 { return float64(len(p.samples)) / p.wall })
		m["job_p50_s"] = median(p50s)
		m["job_p99_s"] = median(p99s)
		m["oracle_queries"] = queries
		m["iterations"] = iters
		m["key_correct_frac"] = float64(keyOK) / float64(svcPassJobs)
		m["best_hd"] = mean(hds)
		m["alloc_mb"] = per(func(p svcPass) float64 { return float64(p.rt.allocBytes) / 1e6 })
		m["peak_heap_mb"] = per(func(p svcPass) float64 { return float64(p.peak) / 1e6 })
		fmt.Fprintf(cfg.log, "perfbench: %d samples per pass; pass p50 %.4f s; pass p99 %.4f s\n", svcPassJobs, p50s, p99s)
		return &outcomeSet{correct: correct, attempted: attempted, failed: failed, metrics: m}, nil
	}
	for _, d := range perLayer {
		m[d.name] = 0 // the attack-engine layers are not traced here
	}
	m["server.submit_p50_s"] = median(submit)
	m["server.queue_p50_s"] = median(queue)
	m["server.run_p50_s"] = median(run)
	m["server.deliver_p50_s"] = median(deliver)
	m["server.refused"] = float64(refused)
	m["trace.events"] = per(func(p svcPass) float64 { return float64(p.events) })
	m["trace.dropped"] = per(func(p svcPass) float64 { return float64(p.dropped) })
	m["wal.bytes"] = float64(fileSize(filepath.Join(tmpl, "jobs.wal")))
	m["wal.replay_s"] = median(replays)
	m["go.gc_cycles"] = per(func(p svcPass) float64 { return float64(p.rt.gcCycles) })
	m["go.gc_cpu_s"] = per(func(p svcPass) float64 { return p.rt.gcCPU })
	m["go.allocs"] = per(func(p svcPass) float64 { return float64(p.rt.allocObjects) })
	m["host.wall_s"] = now().Sub(wallStart).Seconds()
	if hostEnd, ok := readProcStat(); ok && hostOK {
		m["host.steal_frac"] = stealFrac(hostStart, hostEnd)
	}
	return &outcomeSet{correct: correct, attempted: attempted, failed: failed, metrics: m}, nil
}

func passCPUs(ps []svcPass) []float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = p.cpu
	}
	return v
}

// fileSize is a file's size in bytes, 0 when it does not exist.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
