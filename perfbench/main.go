// Command perfbench is the repository's benchmark. One invocation runs
// one workload on inputs derived from a seed, checks every output, and
// prints a one-line JSON result: the end-to-end metrics by default,
// the per-layer metrics of a traced pass with -trace 1. The workloads,
// metrics and the reasons behind them are described in README.md
// beside this file; BENCHMARK.json at the repository root lists them
// for tooling.
//
// Usage (from the repository root; perfbench/run.sh builds first):
//
//	perfbench -workload statsat-enum -seed 7 -seconds 20 -trace 0
//
// Attack workloads are timed in process CPU seconds (getrusage), so
// hypervisor steal on a shared VM does not reach their figures; only
// the service workload's latency and throughput are wall-clock.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with -trace 0. None of them is ever zero on a healthy run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_p99_s", "s"},
	{"oracle_queries", "count"},
	{"iterations", "count"},
	{"key_correct_frac", "frac"},
	{"best_hd", "frac"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the single-layer metrics reported with -trace 1. A
// layer a workload never reaches reports zero.
var perLayer = []metricDef{
	{"engine.solve_s", "s"},
	{"engine.converge_s", "s"},
	{"engine.repeat_s", "s"},
	{"engine.other_s", "s"},
	{"engine.dip_iters", "count"},
	{"engine.repeat_iters", "count"},
	{"engine.unsat_iters", "count"},
	{"engine.useful_iter_frac", "frac"},
	{"sat.conflicts", "count"},
	{"sat.propagations", "count"},
	{"sat.decisions", "count"},
	{"sat.props_per_us", "1/us"},
	{"core.record_s", "s"},
	{"core.candidates", "count"},
	{"core.record_us_per_candidate", "us"},
	{"core.forks", "count"},
	{"core.force_proceeds", "count"},
	{"core.dead_instances", "count"},
	{"attack.install_s", "s"},
	{"oracle.attack_s", "s"},
	{"oracle.eval_s", "s"},
	{"oracle.calls", "count"},
	{"oracle.attack_queries", "count"},
	{"oracle.eval_queries", "count"},
	{"oracle.ns_per_query", "ns"},
	{"metrics.eval_s", "s"},
	{"metrics.keysim_s", "s"},
	{"lock.lock_s", "s"},
	{"netio.parse_s", "s"},
	{"oracle.new_s", "s"},
	{"wal.replay_s", "s"},
	{"wal.bytes", "bytes"},
	{"server.submit_p50_s", "s"},
	{"server.queue_p50_s", "s"},
	{"server.run_p50_s", "s"},
	{"server.deliver_p50_s", "s"},
	{"server.refused", "count"},
	{"trace.events", "count"},
	{"trace.dropped", "count"},
	{"trace.overhead_frac", "frac"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"go.allocs", "count"},
	{"host.wall_s", "s"},
	{"host.steal_frac", "frac"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	log     io.Writer // diagnostics (stderr)
}

// outcomeSet is what a workload hands back: the checked counts and
// the metric values by name (units come from endToEnd/perLayer).
type outcomeSet struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
}

// workloads is the benchmark's fixed set, by name. BENCHMARK.json and
// README.md give the reason for each.
var workloads = map[string]func(ctx context.Context, cfg runConfig) (*outcomeSet, error){
	"statsat-enum":    enumWorkload.run,
	"statsat-eval":    evalWorkload.run,
	"baselines-miter": miterWorkload.run,
	"statsatd-jobs":   runService,
}

// runDeadline bounds a whole run, so a pathological input fails the
// run instead of hanging it past the harness's limit.
const runDeadline = 160 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (statsat-enum, statsat-eval, baselines-miter, statsatd-jobs)")
	seed := fs.Int64("seed", 1, "seed every input, lock, oracle and attack derives from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "1 = print the per-layer metrics of a traced pass instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %v, -seconds > 0, -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		log:     stderr,
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line, err := encodeResult(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed\n", *name)
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// encodeResult renders the result line, holding the workload to the
// reporting contract: exactly the metrics of defs, all finite.
func encodeResult(out *outcomeSet, defs []metricDef) ([]byte, error) {
	if out.attempted < 1 {
		return nil, errors.New("no job attempted")
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.name)
		}
		if v != v || v > 1e300 || v < -1e300 {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range out.metrics {
		if _, ok := ms[name]; !ok {
			return nil, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.correct, out.attempted, out.failed, ms})
}
