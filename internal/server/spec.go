// Package server implements statsatd, the attack-as-a-service job
// server: a stdlib-only net/http daemon that accepts attack jobs
// (named benchmark or uploaded netlist, any of the four attack kinds,
// the full option set), runs them on a bounded worker pool, and
// exposes their progress, live trace stream and results over a small
// REST API. The API, job lifecycle and cancellation semantics are
// documented in docs/SERVER.md.
//
// The server is deliberately a thin composition of primitives that
// already exist elsewhere in the repository: jobs execute through the
// public statsat facade's *Ctx entry points, live streaming rides on
// trace.Stream, status counters on engine.Progress, cancellation on
// the engine's context contract (docs/ARCHITECTURE.md), and the
// worker pool reuses the pull-queue shape of the experiment scheduler.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"statsat"
	"statsat/internal/netio"
)

// Spec is the wire form of one attack job (the POST /v1/jobs body).
// The target circuit comes from exactly one of two sources:
//
//   - Benchmark: a named Table I benchmark (plus "c17"), synthesised
//     at Scale and locked server-side with Lock/KeyBits/LockSeed — the
//     server knows the ground-truth key and reports per-key
//     correctness; or
//   - Netlist: an uploaded pre-locked netlist (bench or structural
//     Verilog source, decoded in memory) whose correct key the client
//     supplies in Key to activate the simulated oracle.
type Spec struct {
	// Attack selects the engine: "statsat" (default), "psat", "sat" or
	// "appsat".
	Attack string `json:"attack,omitempty"`

	// Benchmark names a built-in circuit (Table I suite or "c17").
	Benchmark string `json:"benchmark,omitempty"`
	// Scale divides the benchmark's gate count (1 = published size;
	// the experiment harness uses 8-48 for fast runs). Benchmark mode
	// only.
	Scale int `json:"scale,omitempty"`
	// Lock picks the server-side locking technique for benchmark jobs:
	// "rll" (default), "sll", "sfll", "antisat" or "sarlock".
	Lock string `json:"lock,omitempty"`
	// KeyBits is the lock's key width (default 8). Benchmark mode only.
	KeyBits int `json:"key_bits,omitempty"`
	// LockSeed seeds the locking randomness (default 1).
	LockSeed int64 `json:"lock_seed,omitempty"`

	// Netlist is an uploaded netlist source (the file contents, not a
	// path); Format names its serialisation ("bench" default,
	// "verilog"). Key is the activated chip's correct key as a 0/1
	// string. Netlist mode only.
	Netlist string `json:"netlist,omitempty"`
	Format  string `json:"format,omitempty"`
	Key     string `json:"key,omitempty"`

	// Eps is the oracle's gate error probability (0 = deterministic
	// chip). Seed drives the oracle noise and attack-side randomness.
	Eps  float64 `json:"eps,omitempty"`
	Seed int64   `json:"seed,omitempty"`

	// TimeoutMs bounds the job's run time; past it the attack is
	// interrupted exactly like a client cancellation and returns its
	// best-effort partial result (0 = no deadline).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`

	// Options tunes the attack; zero values keep each engine's
	// defaults.
	Options SpecOptions `json:"options,omitempty"`
}

// SpecOptions mirrors the attack option sets (core.Options and the
// baselines' knobs) field-for-field where a job can usefully set them.
type SpecOptions struct {
	Ns      int     `json:"ns,omitempty"`
	NSatis  int     `json:"nsatis,omitempty"`
	NEval   int     `json:"neval,omitempty"`
	NInst   int     `json:"ninst,omitempty"`
	ULambda float64 `json:"ulambda,omitempty"`
	ELambda float64 `json:"elambda,omitempty"`
	// EpsG is the attacker's gate-error estimate for BER gating; 0
	// defaults to Eps (the server simulates the chip, so the "known
	// eps_g" assumption of §V costs nothing).
	EpsG    float64 `json:"epsg,omitempty"`
	MaxIter int     `json:"max_iter,omitempty"`
}

// decodeSpec reads a POST /v1/jobs body: one Spec, unknown fields
// refused.
func decodeSpec(r io.Reader) (*Spec, error) {
	var sp Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, err
	}
	return &sp, nil
}

// attackKinds is the closed set of engines a job may request.
var attackKinds = map[string]bool{"statsat": true, "psat": true, "sat": true, "appsat": true}

// materialized is a validated, executable job: the locked netlist, the
// ground-truth key activating the simulated chip, and the oracle.
type materialized struct {
	locked  *statsat.Circuit
	key     []bool
	orc     statsat.Oracle
	attack  string
	circuit CircuitInfo
}

// CircuitInfo describes the attacked netlist's interface in job
// status responses.
type CircuitInfo struct {
	Name string `json:"name"`
	PIs  int    `json:"pis"`
	POs  int    `json:"pos"`
	Keys int    `json:"keys"`
}

// errSpec wraps every validation failure so the HTTP layer can map it
// to 400 instead of 500.
var errSpec = errors.New("invalid job spec")

func specErrf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", errSpec, fmt.Sprintf(format, args...))
}

// materialize validates the spec and builds the attack inputs. All
// failures here are client errors (bad spec), reported before the job
// is admitted to the queue.
func (sp *Spec) materialize() (*materialized, error) {
	attack := sp.Attack
	if attack == "" {
		attack = "statsat"
	}
	if !attackKinds[attack] {
		return nil, specErrf("unknown attack %q (want statsat, psat, sat or appsat)", attack)
	}
	if sp.Eps < 0 || sp.Eps > 1 {
		return nil, specErrf("eps %v out of [0,1]", sp.Eps)
	}
	if (sp.Benchmark == "") == (sp.Netlist == "") {
		return nil, specErrf("exactly one of benchmark or netlist must be set")
	}

	var locked *statsat.Circuit
	var key []bool
	var err error
	if sp.Benchmark != "" {
		locked, key, err = sp.buildBenchmark()
	} else {
		locked, key, err = sp.decodeNetlist()
	}
	if err != nil {
		return nil, err
	}

	var orc statsat.Oracle
	if sp.Eps > 0 {
		orc = statsat.NewNoisyOracle(locked, key, sp.Eps, sp.Seed+1)
	} else {
		orc = statsat.NewOracle(locked, key)
	}
	return &materialized{
		locked: locked, key: key, orc: orc, attack: attack,
		circuit: CircuitInfo{
			Name: locked.Name, PIs: locked.NumPIs(), POs: locked.NumPOs(), Keys: locked.NumKeys(),
		},
	}, nil
}

// buildBenchmark synthesises and locks a named benchmark server-side.
func (sp *Spec) buildBenchmark() (*statsat.Circuit, []bool, error) {
	if sp.Netlist != "" || sp.Key != "" {
		return nil, nil, specErrf("benchmark mode does not take netlist or key fields")
	}
	scale := sp.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 1 {
		return nil, nil, specErrf("scale %d out of range (want >= 1)", sp.Scale)
	}
	var orig *statsat.Circuit
	if sp.Benchmark == "c17" {
		orig = statsat.C17()
	} else {
		b, ok := statsat.BenchmarkByName(sp.Benchmark)
		if !ok {
			return nil, nil, specErrf("unknown benchmark %q", sp.Benchmark)
		}
		orig = b.BuildScaled(scale)
	}
	keyBits := sp.KeyBits
	if keyBits == 0 {
		keyBits = 8
	}
	if keyBits < 1 || keyBits > 64 {
		return nil, nil, specErrf("key_bits %d out of range (want 1..64)", sp.KeyBits)
	}
	lockSeed := sp.LockSeed
	if lockSeed == 0 {
		lockSeed = 1
	}
	tech := sp.Lock
	if tech == "" {
		tech = "rll"
	}
	var lk *statsat.Locked
	var err error
	switch tech {
	case "rll":
		lk, err = statsat.LockRLL(orig, keyBits, lockSeed)
	case "sll":
		lk, err = statsat.LockSLL(orig, keyBits, lockSeed)
	case "sfll":
		lk, err = statsat.LockSFLLHD(orig, keyBits, 1, lockSeed)
	case "antisat":
		lk, err = statsat.LockAntiSAT(orig, keyBits, lockSeed)
	case "sarlock":
		lk, err = statsat.LockSARLock(orig, keyBits, lockSeed)
	default:
		return nil, nil, specErrf("unknown lock %q (want rll, sll, sfll, antisat or sarlock)", tech)
	}
	if err != nil {
		return nil, nil, specErrf("locking %s with %s: %v", sp.Benchmark, tech, err)
	}
	return lk.Circuit, lk.Key, nil
}

// decodeNetlist parses an uploaded netlist straight from memory (no
// temp files) through the streaming front end — uploads can be
// 100k-gate netlists, and the JSON payload already holds one copy of
// the text — and checks the supplied key against its interface.
func (sp *Spec) decodeNetlist() (*statsat.Circuit, []bool, error) {
	if sp.Lock != "" || sp.KeyBits != 0 || sp.Scale != 0 {
		return nil, nil, specErrf("netlist mode does not take lock, key_bits or scale fields")
	}
	format, err := netio.ParseFormat(sp.Format)
	if err != nil {
		return nil, nil, specErrf("%v", err)
	}
	locked, err := netio.ReadFromStreaming(strings.NewReader(sp.Netlist), format)
	if err != nil {
		return nil, nil, specErrf("decoding netlist: %v", err)
	}
	if locked.NumKeys() == 0 {
		return nil, nil, specErrf("uploaded netlist %q has no key inputs (keyinput*)", locked.Name)
	}
	key, err := parseKeyBits(sp.Key, locked.NumKeys())
	if err != nil {
		return nil, nil, err
	}
	return locked, key, nil
}

// parseKeyBits decodes a 0/1 key string of the expected width.
func parseKeyBits(s string, want int) ([]bool, error) {
	if s == "" {
		return nil, specErrf("netlist mode needs the oracle's correct key (key field)")
	}
	if len(s) != want {
		return nil, specErrf("key has %d bits, circuit has %d key inputs", len(s), want)
	}
	key := make([]bool, len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			key[i] = true
		default:
			return nil, specErrf("key must be a 0/1 string, found %q", c)
		}
	}
	return key, nil
}
