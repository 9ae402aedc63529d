package main

import (
	"bytes"
	"fmt"
	"strings"

	"statsat"
	"statsat/internal/netio"
)

// jobSpec is one attack job of a workload's fixed list. The seed of a
// run picks the lock placement and key, the chip's noise stream and
// the attack's own randomness; the circuit and the sizes are fixed, so
// every seed asks for comparable work.
type jobSpec struct {
	bench   string  // Table I stand-in name, or "c17"
	scale   int     // gate-count divisor of the stand-in (BuildScaled)
	lock    string  // "rll", "sll", "sfll0" (SFLL-HD⁰) or "antisat"
	keyBits int     // key width
	attack  string  // "statsat", "sat", "appsat" or "psat"
	eps     float64 // gate error probability of the activated chip
}

func (sp jobSpec) String() string {
	return fmt.Sprintf("%s/%s/%s-%d@%g", sp.attack, sp.circuitName(), sp.lock, sp.keyBits, sp.eps)
}

func (sp jobSpec) circuitName() string {
	if sp.scale > 1 {
		return fmt.Sprintf("%s-s%d", sp.bench, sp.scale)
	}
	return sp.bench
}

// job is a jobSpec made ready to attack: the locked netlist as read
// back from its .bench text, its ground-truth key and the derived
// seeds.
type job struct {
	spec       jobSpec
	locked     *statsat.Circuit
	key        []bool
	oracleSeed int64
	attackSeed int64
}

// newOracle activates a fresh chip: every pass starts the noise stream
// from the same seed, so every pass repeats the same attack exactly.
func (j *job) newOracle() statsat.Oracle {
	if j.spec.eps > 0 {
		return statsat.NewNoisyOracle(j.locked, j.key, j.spec.eps, j.oracleSeed)
	}
	return statsat.NewOracle(j.locked, j.key)
}

// Seed derivation tags.
const (
	tagLock = iota + 1
	tagOracle
	tagAttack
	tagEval
)

// derive mixes a run seed with coordinates into an independent seed
// (splitmix64 finalizer per step), so job i's lock, oracle and attack
// seeds are distinct streams of one run seed.
func derive(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x = mix64(x ^ mix64(uint64(p)+0x9e3779b97f4a7c15))
	}
	return int64(x >> 1)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// setupLayers splits set-up CPU seconds by step.
type setupLayers struct {
	lock, parse, oracle float64
}

// buildJobs is the set-up of an attack workload, the way a user feeds
// cmd/statsat: generate and lock each circuit (the lockgen step), write
// the locked netlist as .bench, read it back through the streaming
// front end statsatd and cmd/statsat use, and activate the chip.
func buildJobs(specs []jobSpec, seed int64, lay *setupLayers) ([]*job, error) {
	jobs := make([]*job, len(specs))
	for i, sp := range specs {
		var (
			lk   *statsat.Locked
			text bytes.Buffer
			err  error
		)
		lay.lock += cpuSeconds(func() {
			lk, err = lockCircuit(sp, derive(seed, int64(i), tagLock))
			if err == nil {
				err = statsat.WriteBench(&text, lk.Circuit)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("job %d (%v): %w", i, sp, err)
		}
		var locked *statsat.Circuit
		lay.parse += cpuSeconds(func() {
			locked, err = netio.ReadFromStreaming(&text, netio.Bench)
		})
		if err != nil {
			return nil, fmt.Errorf("job %d (%v): reading back: %w", i, sp, err)
		}
		if locked.NumKeys() != len(lk.Key) {
			return nil, fmt.Errorf("job %d (%v): read back %d key inputs, locked %d", i, sp, locked.NumKeys(), len(lk.Key))
		}
		j := &job{
			spec: sp, locked: locked, key: lk.Key,
			oracleSeed: derive(seed, int64(i), tagOracle),
			attackSeed: derive(seed, int64(i), tagAttack),
		}
		lay.oracle += cpuSeconds(func() { j.newOracle() })
		jobs[i] = j
	}
	return jobs, nil
}

// lockCircuit synthesises the job's stand-in circuit and locks it.
func lockCircuit(sp jobSpec, seed int64) (*statsat.Locked, error) {
	var orig *statsat.Circuit
	if sp.bench == "c17" {
		orig = statsat.C17()
	} else {
		b, ok := statsat.BenchmarkByName(sp.bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", sp.bench)
		}
		orig = b.BuildScaled(sp.scale)
	}
	switch sp.lock {
	case "rll":
		return statsat.LockRLL(orig, sp.keyBits, seed)
	case "sll":
		return statsat.LockSLL(orig, sp.keyBits, seed)
	case "sfll0":
		return statsat.LockSFLLHD(orig, sp.keyBits, 0, seed)
	case "antisat":
		return statsat.LockAntiSAT(orig, sp.keyBits, seed)
	}
	return nil, fmt.Errorf("unknown lock %q", sp.lock)
}

// bitString renders a key as a 0/1 string.
func bitString(key []bool) string {
	var b strings.Builder
	for _, v := range key {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
