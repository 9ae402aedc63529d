// statsat runs an oracle-guided attack (StatSAT, PSAT or the standard
// SAT attack) on a locked .bench netlist. The oracle is simulated from
// the same netlist activated with the correct key (-key / -keyfile),
// optionally under the paper's probabilistic gate-error model (-eps).
//
// Usage:
//
//	statsat -in locked.bench -keyfile locked.key -eps 0.0125 \
//	        -attack statsat -ninst 8 -ns 500
//
// -cpuprofile <file> writes a runtime/pprof CPU profile of the whole
// run (docs/OBSERVABILITY.md "CPU profiles").
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"

	"statsat/internal/attack"
	"statsat/internal/circuit"
	"statsat/internal/core"
	"statsat/internal/engine"
	"statsat/internal/metrics"
	"statsat/internal/netio"
	"statsat/internal/oracle"
	"statsat/internal/server"
	"statsat/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run carries the whole tool so deferred cleanup (trace flushing, the
// CPU profile) still happens on the non-zero exit paths — os.Exit in
// main would skip it.
func run(args []string) int {
	fs := flag.NewFlagSet("statsat", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "locked netlist, .bench or structural .v (keyinput* inputs)")
		format   = fs.String("format", "", "force netlist format: bench | verilog (default: by extension)")
		keyStr   = fs.String("key", "", "correct key as a 0/1 string (activates the oracle)")
		keyFile  = fs.String("keyfile", "", "file containing the correct key (0/1 string)")
		eps      = fs.Float64("eps", 0, "oracle gate error probability (0 = deterministic chip)")
		mode     = fs.String("attack", "statsat", "attack: statsat | psat | sat")
		ns       = fs.Int("ns", 500, "oracle samples per distinguishing input")
		nSatis   = fs.Int("nsatis", 100, "satisfying keys for BER estimation")
		nEval    = fs.Int("neval", 2000, "evaluation inputs for FM/HD")
		nInst    = fs.Int("ninst", 1, "maximum SAT instances")
		uLam     = fs.Float64("ulambda", 0.25, "uncertainty threshold U_lambda")
		eLam     = fs.Float64("elambda", 0.30, "estimated-BER threshold E_lambda")
		epsG     = fs.Float64("epsg", -1, "attacker's gate-error estimate (-1 = estimate via §V-E; ignored when -eps 0). -server mode never estimates: it sends -1 as 0, which statsatd reads as the true -eps")
		seed     = fs.Int64("seed", 1, "PRNG seed")
		verbose  = fs.Bool("v", false, "log attack progress and stream trace events to stderr")
		traceOut = fs.String("trace", "", "write a JSON-lines event trace to this file (schema: docs/OBSERVABILITY.md)")
		maxIter  = fs.Int("maxiter", 20000, "iteration safety cap")
		srvURL   = fs.String("server", "", "submit the job to a statsatd daemon at this base URL instead of attacking locally")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the run to this file")
	)
	fs.Parse(args)
	if *in == "" {
		return fail(fmt.Errorf("need -in <locked netlist>"))
	}
	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf)
		if err != nil {
			return fail(err)
		}
		defer stop()
	}
	// Ctrl-C / SIGTERM cancels the attack at the next iteration
	// boundary; the attack then returns its best-effort partial result.
	// In -server mode the same signal DELETEs the remote job.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tracer, closeTrace, err := openTrace(*traceOut, *verbose)
	if err != nil {
		return fail(err)
	}
	defer closeTrace()
	if *srvURL != "" {
		keySrc := *keyStr
		if *keyFile != "" {
			b, err := os.ReadFile(*keyFile)
			if err != nil {
				return fail(err)
			}
			keySrc = strings.TrimSpace(string(b))
		}
		epsGuess := *epsG
		if epsGuess < 0 {
			epsGuess = 0 // daemon defaults eps_g to the true eps
		}
		return runServer(ctx, clientOptions{
			serverURL: *srvURL, in: *in, format: *format, key: keySrc,
			eps: *eps, attack: *mode, seed: *seed, tracer: tracer,
			opts: server.SpecOptions{
				Ns: *ns, NSatis: *nSatis, NEval: *nEval, NInst: *nInst,
				ULambda: *uLam, ELambda: *eLam, EpsG: epsGuess,
				MaxIter: *maxIter,
			},
		})
	}
	forced, err := netio.ParseFormat(*format)
	if err != nil {
		return fail(err)
	}
	locked, err := netio.ReadFile(*in, forced)
	if err != nil {
		return fail(err)
	}
	key, err := loadKey(*keyStr, *keyFile, locked.NumKeys())
	if err != nil {
		return fail(err)
	}

	var orc oracle.Oracle
	if *eps > 0 {
		orc = oracle.NewProbabilistic(locked, key, *eps, *seed+1)
	} else {
		orc = oracle.NewDeterministic(locked, key)
	}

	interrupted := false
	switch *mode {
	case "sat":
		res, err := attack.StandardSATOpt(ctx, locked, orc, attack.SATOptions{
			MaxIter: *maxIter, Tracer: tracer,
		})
		if err != nil {
			if !errors.Is(err, attack.ErrInterrupted) {
				return fail(err)
			}
			interrupted = true
			fmt.Fprintln(os.Stderr, "statsat: interrupted — results below are best-effort")
		}
		if err := reportBaseline(os.Stdout, "standard SAT", res, locked, key); err != nil {
			return fail(err)
		}
	case "psat":
		res, err := attack.PSAT(ctx, locked, orc, attack.PSATOptions{
			Ns: *ns, MaxIter: *maxIter, Seed: *seed, Tracer: tracer,
		})
		if err != nil {
			if !errors.Is(err, attack.ErrInterrupted) {
				return fail(err)
			}
			interrupted = true
			fmt.Fprintln(os.Stderr, "statsat: interrupted — results below are best-effort")
		}
		if err := reportBaseline(os.Stdout, "PSAT", res, locked, key); err != nil {
			return fail(err)
		}
	case "statsat":
		guess := *epsG
		if *eps > 0 && guess < 0 {
			fmt.Fprintln(os.Stderr, "estimating gate error probability (§V-E)...")
			guess = core.EstimateGateError(ctx, locked, orc, core.EstimateOptions{Seed: *seed})
			fmt.Fprintf(os.Stderr, "estimated eps' = %.4f%% (true value hidden from attacker)\n", guess*100)
		}
		if guess < 0 {
			guess = 0
		}
		opts := core.Options{
			Ns: *ns, NSatis: *nSatis, NEval: *nEval, NInst: *nInst,
			ULambda: *uLam, ELambda: *eLam, EpsG: guess,
			MaxTotalIter: *maxIter, Seed: *seed,
			Tracer: tracer,
		}
		if *verbose {
			opts.Logf = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		res, err := core.Attack(ctx, locked, orc, opts)
		if err != nil {
			if !errors.Is(err, core.ErrInterrupted) {
				return fail(err)
			}
			interrupted = true
			fmt.Fprintln(os.Stderr, "statsat: interrupted — results below are best-effort")
		}
		fmt.Printf("StatSAT: %d key(s), %d instance(s) peak, %d forks, %d force-proceeds, %d dead\n",
			len(res.Keys), res.Instances, res.Forks, res.ForceProceeds, res.DeadInstances)
		fmt.Printf("T_attack = %v, T_eval/key = %v, oracle queries = %d (+%d eval)\n",
			res.AttackDuration, res.EvalPerKey, res.OracleQueries, res.EvalQueries)
		if res.Truncated {
			fmt.Println("WARNING: iteration budget exhausted before all instances settled (-maxiter)")
		}
		if *verbose {
			fmt.Println("instance tree (id<-parent iters dips outcome):")
			for _, st := range res.InstanceStats {
				fmt.Printf("  %3d <- %3d  %5d %4d  %s\n", st.ID, st.Parent, st.Iterations, st.DIPs, st.Outcome)
			}
		}
		for i, k := range res.Keys {
			marker, err := correctMarker(locked, k.Key, key)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("key %d: FM=%.4f HD=%.4f iters=%d %s%s\n",
				i, k.FM, k.HD, k.Iterations, engine.BitString(k.Key), marker)
		}
	default:
		return fail(fmt.Errorf("unknown attack %q (want statsat, psat or sat)", *mode))
	}
	if interrupted {
		return 1
	}
	return 0
}

// openTrace assembles the requested trace sinks: a JSON-lines file for
// -trace, a human-readable stderr stream for -v, both, or none (nil
// tracer, tracing off). The closer flushes the file and is always safe
// to call.
func openTrace(path string, verbose bool) (trace.Tracer, func(), error) {
	var sinks []trace.Tracer
	closer := func() {}
	if verbose {
		sinks = append(sinks, trace.NewText(os.Stderr))
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return nil, nil, err
		}
		bw := bufio.NewWriter(f)
		sinks = append(sinks, trace.NewJSONL(bw))
		closer = func() {
			bw.Flush()
			f.Close()
		}
	}
	return trace.Multi(sinks...), closer, nil
}

// reportBaseline prints a SAT or PSAT outcome to w, marking the key
// "(CORRECT)" when it is functionally equivalent to the true key.
func reportBaseline(w io.Writer, name string, res *attack.Result, locked *circuit.Circuit, key []bool) error {
	if res.Failed || res.Key == nil {
		fmt.Fprintf(w, "%s FAILED after %d iterations (%v, %d queries)\n",
			name, res.Iterations, res.Duration, res.OracleQueries)
		return nil
	}
	marker, err := correctMarker(locked, res.Key, key)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: key=%s iterations=%d time=%v queries=%d%s\n",
		name, engine.BitString(res.Key), res.Iterations, res.Duration, res.OracleQueries, marker)
	return nil
}

// correctMarker returns "  (CORRECT)" when got unlocks the same
// function as the true key, else "".
func correctMarker(locked *circuit.Circuit, got, key []bool) (string, error) {
	eq, err := metrics.KeysEquivalent(locked, got, key)
	if err != nil || !eq {
		return "", err
	}
	return "  (CORRECT)", nil
}

func loadKey(keyStr, keyFile string, want int) ([]bool, error) {
	s := keyStr
	if keyFile != "" {
		b, err := os.ReadFile(keyFile)
		if err != nil {
			return nil, err
		}
		s = strings.TrimSpace(string(b))
	}
	if s == "" {
		return nil, fmt.Errorf("need -key or -keyfile with the oracle's correct key")
	}
	if len(s) != want {
		return nil, fmt.Errorf("key has %d bits, circuit has %d key inputs", len(s), want)
	}
	key := make([]bool, len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			key[i] = true
		default:
			return nil, fmt.Errorf("key must be a 0/1 string, found %q", c)
		}
	}
	return key, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "statsat:", err)
	return 1
}

// startCPUProfile starts a CPU profile into path. The returned function
// stops it and closes the file.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "statsat: cpuprofile:", err)
		}
	}, nil
}
