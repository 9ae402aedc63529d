package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"statsat"
)

// attackWorkload is a fixed list of attack jobs, run one after another
// on one goroutine with the default sequential scheduler.
type attackWorkload struct {
	jobs []jobSpec
	// statsat is the StatSAT option template; EpsG, Seed and Tracer
	// are filled in per job.
	statsat statsat.Options
	// psatNs is PSAT's samples per distinguishing input.
	psatNs int
}

// setupReps is how often a run repeats its set-up; setup_s is the
// median.
const setupReps = 7

// Post-run HD measurement budget for PSAT keys (inputs × samples).
const (
	hdInputs  = 64
	hdSamples = 256
)

// outcome is one job's observable result. sig renders everything the
// determinism and parity checks compare.
type outcome struct {
	keys       []string // every returned key, best first
	best       []bool
	iterations int
	queries    int64   // attack plus evaluation chip queries
	hd         float64 // eq. 8 HD of the best key (StatSAT)
	failed     bool    // errored, returned no key or was truncated
	err        error
}

func (o outcome) sig() string {
	return fmt.Sprintf("it=%d q=%d hd=%x failed=%v keys=%s err=%v",
		o.iterations, o.queries, math.Float64bits(o.hd), o.failed, strings.Join(o.keys, ","), o.err)
}

// runJob attacks one job's chip; tr is nil on untraced passes.
func (w *attackWorkload) runJob(ctx context.Context, j *job, orc statsat.Oracle, tr statsat.Tracer) outcome {
	var out outcome
	switch j.spec.attack {
	case "statsat":
		opts := w.statsat
		opts.EpsG, opts.Seed, opts.Tracer = j.spec.eps, j.attackSeed, tr
		res, err := statsat.AttackCtx(ctx, j.locked, orc, opts)
		out.err = err
		if res != nil {
			out.iterations = res.TotalIterations
			out.queries = res.OracleQueries + res.EvalQueries
			for _, k := range res.Keys {
				out.keys = append(out.keys, bitString(k.Key))
			}
			if res.Best != nil {
				out.best, out.hd = res.Best.Key, res.Best.HD
			}
			out.failed = res.Truncated
		}
	case "sat":
		res, err := statsat.StandardSATOptCtx(ctx, j.locked, orc, statsat.SATOptions{Tracer: tr})
		out.err = err
		if res != nil {
			out.iterations, out.queries, out.best, out.failed = res.Iterations, res.OracleQueries, res.Key, res.Failed
		}
	case "appsat":
		res, err := statsat.AppSATCtx(ctx, j.locked, orc, statsat.AppSATOptions{Seed: j.attackSeed, Tracer: tr})
		out.err = err
		if res != nil {
			out.iterations, out.queries, out.best, out.failed = res.Iterations, res.OracleQueries, res.Key, res.Failed
		}
	case "psat":
		res, err := statsat.PSATCtx(ctx, j.locked, orc, statsat.PSATOptions{Ns: w.psatNs, Seed: j.attackSeed, Tracer: tr})
		out.err = err
		if res != nil {
			out.iterations, out.queries, out.best, out.failed = res.Iterations, res.OracleQueries, res.Key, res.Failed
		}
	default:
		out.err = fmt.Errorf("unknown attack %q", j.spec.attack)
	}
	if j.spec.attack != "statsat" && out.best != nil {
		out.keys = []string{bitString(out.best)}
	}
	if out.err != nil || out.best == nil {
		out.failed = true
	}
	return out
}

// passResult is one pass over the job list.
type passResult struct {
	cpu    float64   // process CPU seconds of the pass
	jobCPU []float64 // per job
	outs   []outcome
	rt     rtDelta
	peak   uint64 // peak heap bytes in use
}

// pass runs the job list once. A traced pass (rec non-nil) attaches the
// span recorder as the Tracer and wraps every chip with the oracle
// timer.
func (w *attackWorkload) pass(ctx context.Context, jobs []*job, rec *spans, heap *heapSampler) passResult {
	orcs := make([]statsat.Oracle, len(jobs))
	for i, j := range jobs {
		orcs[i] = j.newOracle()
	}
	pr := passResult{jobCPU: make([]float64, len(jobs)), outs: make([]outcome, len(jobs))}
	runtime.GC()
	heap.reset()
	r0, c0 := readRuntime(), cpuNow()
	for i, j := range jobs {
		jc := cpuNow()
		if rec != nil {
			orc := timeOracle(orcs[i], rec)
			rec.runJob(j.spec.attack != "statsat", func() { pr.outs[i] = w.runJob(ctx, j, orc, rec) })
		} else {
			pr.outs[i] = w.runJob(ctx, j, orcs[i], nil)
		}
		pr.jobCPU[i] = (cpuNow() - jc).Seconds()
	}
	pr.cpu = (cpuNow() - c0).Seconds()
	pr.rt = readRuntime().since(r0)
	pr.peak = heap.peak()
	return pr
}

func (w *attackWorkload) run(ctx context.Context, cfg runConfig) (*outcomeSet, error) {
	hostStart, hostOK := readProcStat()
	wallStart := now()

	// Set-up is repeated setupReps times: once before the timed phase
	// (those jobs are the ones attacked) and then once after each pass,
	// so the repetitions sample the host at different moments. Each
	// repetition starts from a collected heap.
	var (
		jobs                        []*job
		setups, lockS, parseS, orcS []float64
	)
	setup := func() error {
		runtime.GC()
		var lay setupLayers
		var js []*job
		var err error
		c := cpuSeconds(func() { js, err = buildJobs(w.jobs, cfg.seed, &lay) })
		if err != nil {
			return err
		}
		if jobs == nil {
			jobs = js
		}
		setups = append(setups, c)
		lockS, parseS, orcS = append(lockS, lay.lock), append(parseS, lay.parse), append(orcS, lay.oracle)
		return nil
	}
	if err := setup(); err != nil {
		return nil, err
	}

	// Timed phase: whole passes over the job list until the time is
	// up. Traced runs alternate untraced and traced passes; the span
	// recorder accumulates over the traced ones.
	heap := startHeapSampler()
	defer heap.stop()
	var plain, traced []passResult
	var rec *spans
	if cfg.trace {
		rec = &spans{clock: now}
	}
	deadline := now().Add(cfg.seconds)
	for len(plain) == 0 || (cfg.trace && len(traced) == 0) || now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("timed phase: %w", err)
		}
		if cfg.trace && len(traced) < len(plain) {
			traced = append(traced, w.pass(ctx, jobs, rec, heap))
		} else {
			plain = append(plain, w.pass(ctx, jobs, nil, heap))
		}
		if len(setups) < setupReps {
			if err := setup(); err != nil {
				return nil, err
			}
		}
	}
	for len(setups) < setupReps {
		if err := setup(); err != nil {
			return nil, err
		}
	}

	// Checks, after the timed phase: every pass reproduces the first
	// one job by job (traced passes included: the parity self-check),
	// deterministic-chip SAT keys unlock the ground truth's function.
	ref := plain[0].outs
	correct := true
	for _, p := range append(plain[1:], traced...) {
		for i := range ref {
			if a, b := ref[i].sig(), p.outs[i].sig(); a != b {
				fmt.Fprintf(cfg.log, "perfbench: job %d (%v) not reproduced:\n  first pass %s\n  later pass %s\n", i, jobs[i].spec, a, b)
				correct = false
			}
		}
	}
	failed, keyOK, hds := 0, 0, []float64(nil)
	for i, j := range jobs {
		o := ref[i]
		if o.failed {
			failed++
			fmt.Fprintf(cfg.log, "perfbench: job %d (%v) failed: %s\n", i, j.spec, o.sig())
			continue
		}
		eq, err := sameFunction(j, o.best)
		if err != nil {
			return nil, fmt.Errorf("job %d (%v): %w", i, j.spec, err)
		}
		switch {
		case eq:
			keyOK++
		case j.spec.attack == "sat":
			fmt.Fprintf(cfg.log, "perfbench: job %d (%v): SAT attack on an exact chip returned a wrong key\n", i, j.spec)
			correct = false
		default:
			fmt.Fprintf(cfg.log, "perfbench: job %d (%v): wrong key\n", i, j.spec)
		}
		switch {
		case j.spec.attack == "statsat":
			hds = append(hds, o.hd)
		case j.spec.eps > 0:
			hds = append(hds, measureHD(ctx, j, o.best))
		}
	}

	m := map[string]float64{}
	if cfg.trace {
		correct = layerMetrics(cfg, m, &rec.layers, plain, traced) && correct
		m["lock.lock_s"], m["netio.parse_s"], m["oracle.new_s"] = median(lockS), median(parseS), median(orcS)
		m["host.wall_s"] = now().Sub(wallStart).Seconds()
		m["host.steal_frac"] = 0
		if hostEnd, ok := readProcStat(); ok && hostOK {
			m["host.steal_frac"] = stealFrac(hostStart, hostEnd)
		}
		for _, d := range perLayer {
			if _, ok := m[d.name]; !ok {
				m[d.name] = 0 // a layer this workload never reaches
			}
		}
		return &outcomeSet{correct: correct, attempted: len(jobs), failed: failed, metrics: m}, nil
	}

	// A job's CPU time is its median over the passes; cpu_s sums them,
	// so one disturbed pass moves neither.
	perJob := make([]float64, len(jobs))
	for i := range jobs {
		col := make([]float64, len(plain))
		for k, p := range plain {
			col[k] = p.jobCPU[i]
		}
		perJob[i] = median(col)
	}
	allocs, peaks := make([]float64, len(plain)), make([]float64, len(plain))
	for k, p := range plain {
		allocs[k], peaks[k] = float64(p.rt.allocBytes)/1e6, float64(p.peak)/1e6
	}
	var cpu, iters, queries float64
	for i, o := range ref {
		cpu += perJob[i]
		iters += float64(o.iterations)
		queries += float64(o.queries)
	}
	p50, err := percentile(perJob, 50)
	if err != nil {
		return nil, fmt.Errorf("job_p50_s: %w", err)
	}
	m["setup_s"] = median(setups)
	m["cpu_s"] = cpu
	m["jobs_per_s"] = float64(len(jobs)) / cpu
	m["job_p50_s"] = p50
	m["job_p99_s"] = maxOf(perJob) // too few jobs for a p99: the slowest job
	m["oracle_queries"] = queries
	m["iterations"] = iters
	m["key_correct_frac"] = float64(keyOK) / float64(len(jobs))
	m["best_hd"] = mean(hds)
	m["alloc_mb"] = median(allocs)
	m["peak_heap_mb"] = median(peaks)
	fmt.Fprintf(cfg.log, "perfbench: %d passes, %d set-ups; set-up cpu_s %.4f\n", len(plain), len(setups), setups)
	for i, j := range jobs {
		fmt.Fprintf(cfg.log, "  job %2d %-36v cpu %.4fs %s\n", i, j.spec, perJob[i], ref[i].sig())
	}
	return &outcomeSet{correct: correct, attempted: len(jobs), failed: failed, metrics: m}, nil
}

// layerMetrics fills the per-layer metrics from the span totals of the
// traced passes (per-pass means; the counters repeat exactly from pass
// to pass) and runs the coverage self-check: the spans must account
// for at least 95% of the traced time.
func layerMetrics(cfg runConfig, m map[string]float64, l *layerTotals, plain, traced []passResult) bool {
	n := float64(len(traced))
	sec := func(d time.Duration) float64 { return d.Seconds() / n }
	cnt := func(c int64) float64 { return float64(c) / n }
	total, covered := sec(l.total), sec(l.covered())
	m["engine.solve_s"] = sec(l.solve)
	m["engine.converge_s"] = sec(l.converge)
	m["engine.repeat_s"] = sec(l.repeat)
	m["engine.other_s"] = total - covered
	m["engine.dip_iters"] = cnt(int64(l.dipIters))
	m["engine.repeat_iters"] = cnt(int64(l.repeatIters))
	m["engine.unsat_iters"] = cnt(int64(l.unsatIters))
	m["engine.useful_iter_frac"] = ratio(float64(l.dipIters), float64(l.dipIters+l.repeatIters+l.unsatIters))
	m["sat.conflicts"] = cnt(l.conflicts)
	m["sat.propagations"] = cnt(l.propagations)
	m["sat.decisions"] = cnt(l.decisions)
	m["sat.props_per_us"] = ratio(float64(l.propagations), (l.solve+l.converge).Seconds()*1e6)
	m["core.record_s"] = sec(l.record)
	m["core.candidates"] = cnt(int64(l.candidates))
	m["core.record_us_per_candidate"] = ratio(l.record.Seconds()*1e6, float64(l.candidates))
	m["core.forks"] = cnt(int64(l.forks))
	m["core.force_proceeds"] = cnt(int64(l.forceProceeds))
	m["core.dead_instances"] = cnt(int64(l.dead))
	m["attack.install_s"] = sec(l.install)
	m["oracle.attack_s"] = sec(l.oracleAttack)
	m["oracle.eval_s"] = sec(l.oracleEval)
	m["oracle.calls"] = cnt(int64(l.calls))
	m["oracle.attack_queries"] = cnt(l.attackQueries)
	m["oracle.eval_queries"] = cnt(l.evalQueries)
	m["oracle.ns_per_query"] = ratio(float64(l.oracleAttack+l.oracleEval), float64(l.attackQueries+l.evalQueries))
	m["metrics.eval_s"] = sec(l.eval)
	m["metrics.keysim_s"] = sec(l.eval) - sec(l.oracleEval)

	plainCPU, tracedCPU := make([]float64, len(plain)), make([]float64, len(traced))
	var rt rtDelta
	for k, p := range plain {
		plainCPU[k] = p.cpu
		rt = rt.add(p.rt)
	}
	for k, p := range traced {
		tracedCPU[k] = p.cpu
	}
	m["trace.overhead_frac"] = median(tracedCPU)/median(plainCPU) - 1
	np := float64(len(plain))
	m["go.gc_cycles"] = float64(rt.gcCycles) / np
	m["go.gc_cpu_s"] = rt.gcCPU / np
	m["go.allocs"] = float64(rt.allocObjects) / np

	coverage := ratio(covered, total)
	fmt.Fprintf(cfg.log, "perfbench: %d untraced + %d traced passes; traced %.3fs, spans cover %.2f%%\n",
		len(plain), len(traced), total, 100*coverage)
	for _, k := range []string{"engine.solve_s", "engine.converge_s", "engine.repeat_s", "core.record_s",
		"attack.install_s", "oracle.attack_s", "metrics.eval_s", "oracle.eval_s", "engine.other_s"} {
		fmt.Fprintf(cfg.log, "  %-20s %8.4fs %5.1f%%\n", k, m[k], 100*ratio(m[k], total))
	}
	if coverage < 0.95 {
		fmt.Fprintf(cfg.log, "perfbench: coverage self-check failed: spans cover %.2f%% of traced time, need 95%%\n", 100*coverage)
		return false
	}
	return true
}

// sameFunction reports whether key unlocks the job's netlist to the
// ground truth's function (identical keys skip the SAT check).
func sameFunction(j *job, key []bool) (bool, error) {
	if bitString(key) == bitString(j.key) {
		return true, nil
	}
	return statsat.KeysEquivalent(j.locked, key, j.key)
}

// measureHD scores a baseline's key with eq. 8 against a fresh chip,
// the way StatSAT's evaluation phase scores its own keys.
func measureHD(ctx context.Context, j *job, key []bool) float64 {
	rng := rand.New(rand.NewSource(derive(j.attackSeed, tagEval)))
	chip := statsat.NewNoisyOracle(j.locked, j.key, j.spec.eps, derive(j.oracleSeed, tagEval))
	sim := statsat.NewNoisyOracle(j.locked, key, j.spec.eps, derive(j.attackSeed, tagEval, 1))
	chipP, simP := make([][]float64, hdInputs), make([][]float64, hdInputs)
	for r := range chipP {
		x := j.locked.RandomInputs(rng)
		chipP[r] = statsat.SignalProbsCtx(ctx, chip, x, hdSamples)
		simP[r] = statsat.SignalProbsCtx(ctx, sim, x, hdSamples)
	}
	return statsat.HD(chipP, simP)
}
