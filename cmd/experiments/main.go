// experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -profile quick -exp all
//	experiments -profile paper -exp table2
//	experiments -exp fig6
//	experiments -profile smoke -exp table2 -cpuprofile table2.pprof
//
// Experiment IDs: table1 table2 table3 table4 table5 fig4 fig5 fig6
// ablations defense sweep all.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"statsat/internal/exp"
)

func main() {
	// Ctrl-C / SIGTERM stops the scheduler: no new cells start, cells
	// already completed stay flushed (table rows stream in order; the
	// partial row prefix is still written as CSV), and the tool exits
	// non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run carries the whole tool so the non-zero exit paths can still
// flush partial output first — os.Exit in main would skip defers —
// and so tests can drive it with their own context, flags and pipes.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		profile  = fs.String("profile", "quick", "profile: paper | quick | smoke")
		expID    = fs.String("exp", "all", "experiment id(s), comma-separated: table1..table5, fig4..fig6, ablations, defense, all")
		csvDir   = fs.String("csv", "", "also write each experiment's rows as CSV into this directory")
		traceDir = fs.String("trace", "", "record one JSON-lines trace per attack run into this directory (schema: docs/OBSERVABILITY.md)")
		verbose  = fs.Bool("v", false, "stream trace events to stderr as they happen")
		workers  = fs.Int("workers", 0, "experiment scheduler workers: 0 = one per CPU, 1 = sequential (results are identical for any value; see docs/PERFORMANCE.md)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpuProf != "" {
		stop, err := startCPUProfile(*cpuProf, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: cpuprofile: %v\n", err)
			return 1
		}
		defer stop()
	}
	p, ok := exp.ProfileByName(*profile)
	if !ok {
		fmt.Fprintf(stderr, "experiments: unknown profile %q\n", *profile)
		return 1
	}
	p.TraceDir = *traceDir
	p.Verbose = *verbose
	p.Workers = *workers

	ids := strings.Split(*expID, ",")
	if *expID == "all" {
		ids = []string{"table1", "table2", "fig4", "fig5", "table3", "fig6", "table4", "table5", "ablations", "defense", "sweep"}
	}
	for _, id := range ids {
		//lint:ignore walltime progress reporting on stderr/stdout banners only; never reaches CSV or table artifacts
		start := time.Now()
		var err error
		var rows interface{}
		switch strings.TrimSpace(id) {
		case "table1":
			rows = exp.TableI(ctx, p, stdout)
		case "table2":
			rows, err = exp.TableII(ctx, p, stdout)
		case "table3":
			rows, err = exp.TableIII(ctx, p, stdout)
		case "table4":
			rows, err = exp.TableIV(ctx, p, stdout)
		case "table5":
			rows, err = exp.TableV(ctx, p, stdout)
		case "fig4":
			rows, err = exp.Fig4(ctx, p, stdout)
		case "fig5":
			rows, err = exp.Fig5(ctx, p, stdout)
		case "fig6":
			rows, err = exp.Fig6(ctx, p, stdout)
		case "ablations":
			rows, err = exp.Ablations(ctx, p, stdout)
		case "defense":
			rows, err = exp.Defense(ctx, p, stdout)
		case "sweep":
			rows, err = exp.SweepNs(ctx, p, stdout)
		default:
			err = fmt.Errorf("unknown experiment %q", id)
		}
		if *csvDir != "" && hasRows(rows) {
			// On cancellation, generators return the completed prefix of
			// rows: flush it as partial CSV before exiting non-zero.
			if cerr := writeCSV(*csvDir, strings.TrimSpace(id), p.Name, rows); cerr != nil {
				fmt.Fprintf(stderr, "experiments: csv %s: %v\n", id, cerr)
				return 1
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", id, err)
			return 1
		}
		//lint:ignore walltime completion banner is presentation-only; determinism tests compare generator output, not banners
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// startCPUProfile starts a CPU profile into path. The returned function
// stops it and closes the file, reporting a failed close on stderr.
func startCPUProfile(path string, stderr io.Writer) (func(), error) {
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
			fmt.Fprintf(stderr, "experiments: cpuprofile: %v\n", err)
		}
	}, nil
}

// hasRows reports whether rows is a non-empty slice (typed nil slices
// arrive as non-nil interfaces, so a plain nil check is not enough).
func hasRows(rows interface{}) bool {
	if rows == nil {
		return false
	}
	v := reflect.ValueOf(rows)
	return v.Kind() == reflect.Slice && v.Len() > 0
}

func writeCSV(dir, id, profile string, rows interface{}) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", id, profile))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := exp.WriteCSV(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
