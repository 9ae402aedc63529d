package main

import "statsat"

// The attack workloads. Each puts most of its CPU in one layer, so a
// later change shows on one workload and leaves the others as its
// control. Lock families and key widths are chosen so the attack's
// work is bounded by the key width and a fresh seed asks for
// comparable work: SFLL-HD⁰ needs at most 2^k DIPs, AntiSAT exactly
// 2^(k/2); RLL and SLL stay small enough that the final UNSAT proof
// does not swing with the lock seed.

// enumWorkload is StatSAT at the paper's attack settings (Ns=500,
// N_satis=100, N_inst=4) with a light evaluation budget, on scaled
// Table I stand-ins at ε=1%: N_satis key enumeration dominates.
// SFLL-HD⁰ is 5 bits wide: at 6 bits StatSAT's iteration count swung
// about threefold with the lock seed.
var enumWorkload = &attackWorkload{
	statsat: statsat.Options{Ns: 500, NSatis: 100, NInst: 4, NEval: 64, EvalNs: 128},
	jobs: crossJobs("statsat", 0.01,
		[]circ{{"c880", 8}, {"c3540", 16}, {"seq", 32}, {"c7552", 32}},
		[]lockKind{{"antisat", 10}, {"antisat", 10}, {"antisat", 10}, {"sfll0", 5}, {"sfll0", 5}, {"sfll0", 5}, {"sll", 8}, {"rll", 8}}),
}

// evalWorkload is StatSAT with the paper's evaluation budget
// (N_eval=2000 inputs × 500 samples per key), Ns=2000 and a light key
// search (N_satis=8), on larger RLL- and SLL-locked stand-ins: FM/HD
// scoring on the noisy-circuit kernels dominates.
var evalWorkload = &attackWorkload{
	statsat: statsat.Options{Ns: 2000, NSatis: 8, NInst: 1, NEval: 2000, EvalNs: 500},
	jobs: append(crossJobs("statsat", 0.01,
		[]circ{{"c880", 4}, {"c3540", 8}, {"c7552", 16}, {"b14", 32}, {"ex1010", 16}},
		[]lockKind{{"rll", 16}, {"sll", 16}, {"rll", 24}, {"sll", 24}, {"antisat", 8}, {"sll", 32}}),
		// One job on a circuit twice the size of the others, with
		// AntiSAT's fixed DIP count: its evaluation is the tail, so the
		// slowest job does not depend on which lock seed makes a key
		// search run long.
		jobSpec{bench: "c7552", scale: 4, lock: "antisat", keyBits: 8, attack: "statsat", eps: 0.01}),
}

// miterWorkload is the baselines: the SAT attack and AppSAT on exact
// chips and PSAT on chips with ε=0.1%, on AntiSAT, SFLL-HD⁰ and RLL:
// thousands of cheap incremental miter solves plus hard final UNSAT
// proofs, with no enumeration and little noise. AppSAT gets RLL-32:
// its RLL-64 runs set the heap peak on some lock seeds and not others.
var miterWorkload = &attackWorkload{
	psatNs: 256,
	jobs: append(append(append(
		crossJobs("sat", 0,
			[]circ{{"c880", 4}, {"c3540", 8}, {"seq", 8}, {"c7552", 16}},
			[]lockKind{{"antisat", 18}, {"antisat", 18}, {"antisat", 18}, {"sfll0", 6}, {"rll", 64}}),
		crossJobs("appsat", 0,
			[]circ{{"c880", 4}, {"c3540", 8}, {"seq", 8}, {"c7552", 16}},
			[]lockKind{{"rll", 32}})...),
		crossJobs("psat", 0.001,
			[]circ{{"c880", 4}, {"c3540", 8}, {"seq", 8}, {"c7552", 16}},
			[]lockKind{{"antisat", 18}})...),
		// One heavier job with a fixed DIP count sets the tail and the
		// heap peak, so neither swings with an RLL lock seed.
		jobSpec{bench: "seq", scale: 8, lock: "antisat", keyBits: 20, attack: "sat"}),
}

// circ is a Table I stand-in at a gate-count scale.
type circ struct {
	bench string
	scale int
}

// lockKind is a lock family at a key width.
type lockKind struct {
	lock    string
	keyBits int
}

// crossJobs lists every circuit under every lock for one attack.
func crossJobs(attack string, eps float64, circs []circ, locks []lockKind) []jobSpec {
	var out []jobSpec
	for _, c := range circs {
		for _, l := range locks {
			out = append(out, jobSpec{bench: c.bench, scale: c.scale, lock: l.lock, keyBits: l.keyBits, attack: attack, eps: eps})
		}
	}
	return out
}
