package exp

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"statsat/internal/lock"
	"statsat/internal/metrics"
)

// DefenseRow is one point of the future-work defense study: the same
// netlist locked with shallow (plain RLL) vs depth-targeted (RLL-deep)
// key gates, attacked by StatSAT at increasing eps_g. FuncBER is the
// chip's own average output error — the accuracy cost a defender pays
// for operating at that noise level.
type DefenseRow struct {
	Variant string
	EpsPct  float64
	FuncBER float64
	Correct bool
	HDBest  float64
	Forks   int
	Dead    int
	Iters   int
}

// Defense runs the defense exploration the paper's conclusion calls
// for: can noise placement/level defeat StatSAT, and at what cost?
func Defense(ctx context.Context, p Profile, w io.Writer) ([]DefenseRow, error) {
	wl, err := BuildWorkload(p, "c880") // plain RLL baseline workload
	if err != nil {
		return nil, err
	}
	// Depth-targeted variant on the same original netlist.
	rng := rand.New(rand.NewSource(p.Seed ^ 0xdef))
	deep, err := lock.RLLDeep(wl.Orig, p.C880KeyBits, rng)
	if err != nil {
		return nil, err
	}
	// Scheduler jobs share the deep circuit read-only; warm its lazy
	// caches like BuildWorkload does for the RLL one.
	deep.Circuit.NumLogicOps()

	fmt.Fprintf(w, "DEFENSE STUDY: shallow RLL vs depth-targeted RLL-deep under StatSAT (profile %s)\n", p.Name)
	fmt.Fprintf(w, "%-10s %6s %9s %5s %9s %6s %5s %6s\n",
		"Variant", "eps%", "FuncBER", "corr", "HD(K*)", "forks", "dead", "iters")
	hr(w, 64)

	variants := []struct {
		name string
		l    *lock.Locked
	}{
		{"RLL", wl.Locked},
		{"RLL-deep", deep},
	}
	type cell struct {
		eps float64
		vi  int
	}
	var cells []cell
	for _, eps := range p.epsList(paperEps["c880"]) {
		for vi := range variants {
			cells = append(cells, cell{eps, vi})
		}
	}
	rows := make([]DefenseRow, len(cells))
	emitted := 0
	err = runOrdered(ctx, p.workers(), len(cells), func(i int) error {
		c := cells[i]
		v := variants[c.vi]
		vwl := Workload{Bench: wl.Bench, Orig: wl.Orig, Locked: v.l}
		ber := metrics.MeasureBER(v.l.Circuit, v.l.Key, c.eps, p.BERInputs, p.BERSamples,
			deriveSeed(p.Seed, "defense-ber", v.name, c.eps))
		out, err := runDoubling(ctx, p, vwl, c.eps,
			fmt.Sprintf("defense/%s/eps%.4g", v.name, c.eps))
		if err != nil {
			return err
		}
		row := DefenseRow{Variant: v.name, EpsPct: c.eps * 100, FuncBER: ber.Avg}
		if out.Res != nil {
			row.Forks = out.Res.Forks
			row.Dead = out.Res.DeadInstances
			if out.Res.Best != nil {
				row.Correct = out.CorrectAny
				row.HDBest = out.Res.Best.HD
				row.Iters = out.Res.Best.Iterations
			}
		}
		rows[i] = row
		return nil
	}, func(i int) {
		row := rows[i]
		fmt.Fprintf(w, "%-10s %6.2f %9.4f %5v %9.4f %6d %5d %6d\n",
			row.Variant, row.EpsPct, row.FuncBER, row.Correct, row.HDBest, row.Forks, row.Dead, row.Iters)
		emitted = i + 1
	})
	if err != nil {
		return rows[:emitted], err
	}
	fmt.Fprintln(w, "\nReading: if RLL-deep rows flip to corr=false (or need far more forks) at the")
	fmt.Fprintln(w, "same FuncBER cost, depth-targeted key placement is a viable StatSAT defence.")
	return rows, nil
}
