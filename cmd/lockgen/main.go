// lockgen locks a combinational .bench netlist with RLL, SLL or
// SFLL-HD and writes the locked netlist plus its correct key.
//
// Usage:
//
//	lockgen -in c432.bench -tech sfll -keys 16 -h 0 -seed 1 \
//	        -out c432_locked.bench -keyout c432.key
//
// With -benchmark <name> a synthetic Table I stand-in is used instead
// of -in (e.g. -benchmark c3540 -scale 8).
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"statsat/internal/circuit"
	"statsat/internal/engine"
	"statsat/internal/gen"
	"statsat/internal/lock"
	"statsat/internal/netio"
)

func main() {
	var (
		in        = flag.String("in", "", "input netlist (.bench or structural .v, unlocked)")
		benchmark = flag.String("benchmark", "", "synthetic Table I benchmark name instead of -in")
		scale     = flag.Int("scale", 1, "gate-count divisor for -benchmark")
		tech      = flag.String("tech", "rll", "locking technique: rll | rll-deep | sll | sfll | antisat | sarlock")
		keys      = flag.Int("keys", 16, "key width in bits")
		hDist     = flag.Int("h", 0, "SFLL-HD Hamming distance h")
		seed      = flag.Int64("seed", 1, "PRNG seed")
		out       = flag.String("out", "", "output netlist path (default stdout, bench format)")
		format    = flag.String("format", "", "force netlist format: bench | verilog (default: by extension)")
		keyOut    = flag.String("keyout", "", "write the correct key (as 0/1 string) to this file")
		simplify  = flag.Bool("simplify", false, "run the clean-up/resynthesis pass on the locked netlist")
	)
	flag.Parse()
	// Ctrl-C / SIGTERM during locking/simplification aborts before the
	// netlist or key file is written, so neither artifact is truncated.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	forced, err := netio.ParseFormat(*format)
	if err != nil {
		fatal(err)
	}

	orig, err := loadCircuit(*in, *benchmark, *scale, forced)
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	var locked *lock.Locked
	switch *tech {
	case "rll":
		locked, err = lock.RLL(orig, *keys, rng)
	case "rll-deep":
		locked, err = lock.RLLDeep(orig, *keys, rng)
	case "sll":
		locked, err = lock.SLL(orig, *keys, rng)
	case "sfll":
		locked, err = lock.SFLLHD(orig, *keys, *hDist, rng)
	case "antisat":
		locked, err = lock.AntiSAT(orig, *keys, rng)
	case "sarlock":
		locked, err = lock.SARLock(orig, *keys, rng)
	default:
		fatal(fmt.Errorf("unknown technique %q (want rll, rll-deep, sll, sfll, antisat or sarlock)", *tech))
	}
	if err != nil {
		fatal(err)
	}
	if *simplify {
		s, err := circuit.Simplify(locked.Circuit)
		if err != nil {
			fatal(err)
		}
		locked.Circuit = s
	}

	if ctx.Err() != nil {
		fatal(fmt.Errorf("interrupted"))
	}
	if *out != "" {
		if err := netio.WriteFile(*out, locked.Circuit, forced); err != nil {
			fatal(err)
		}
	} else if err := netio.Write(os.Stdout, locked.Circuit, forced); err != nil {
		fatal(err)
	}
	keyStr := engine.BitString(locked.Key)
	if *keyOut != "" {
		if err := os.WriteFile(*keyOut, []byte(keyStr+"\n"), 0o644); err != nil {
			fatal(err)
		}
	}
	cost := locked.CostVersus(orig)
	fmt.Fprintf(os.Stderr, "locked %s with %s, %d key bits; key=%s\n",
		orig.Name, locked.Technique, len(locked.Key), keyStr)
	fmt.Fprintf(os.Stderr, "overhead: %d -> %d gates (+%d, %.1f%%)\n",
		cost.OrigGates, cost.LockedGates, cost.ExtraGates, cost.GatePercent)
}

func loadCircuit(in, benchmark string, scale int, forced netio.Format) (*circuit.Circuit, error) {
	switch {
	case in != "" && benchmark != "":
		return nil, fmt.Errorf("lockgen: -in and -benchmark are mutually exclusive")
	case in != "":
		return netio.ReadFile(in, forced)
	case benchmark == "c17":
		return gen.C17(), nil
	case benchmark != "":
		bm, ok := gen.ByName(benchmark)
		if !ok {
			return nil, fmt.Errorf("lockgen: unknown benchmark %q", benchmark)
		}
		return bm.BuildScaled(scale), nil
	}
	return nil, fmt.Errorf("lockgen: need -in or -benchmark")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lockgen:", err)
	os.Exit(1)
}
