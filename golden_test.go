package statsat_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"statsat"
)

// goldenCase is one seeded attack whose trajectory is pinned.
type goldenCase struct {
	name string
	run  func(t *testing.T) string
	want string
}

// dipHash folds the dip_found events — instance, index, input pattern
// and the (partially specified) output pattern — into one FNV-1a hash,
// in emission order.
func dipHash(rec *statsat.TraceRecorder) string {
	h := fnv.New64a()
	for _, ev := range rec.Events() {
		if ev.Type == statsat.TraceDIPFound && ev.DIP != nil {
			fmt.Fprintf(h, "%d/%d/%s/%s;", ev.Instance, ev.DIP.Index, ev.DIP.X, ev.DIP.Y)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// queryHasher is a chip that hashes every input pattern it is asked.
type queryHasher struct {
	statsat.Oracle
	h hash.Hash64
}

func (q *queryHasher) Query(x []bool) []bool {
	fmt.Fprintf(q.h, "%s;", bits(x))
	return q.Oracle.Query(x)
}

func bits(k []bool) string {
	var b strings.Builder
	for _, v := range k {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// goldenLock builds a seeded lock on the c880 stand-in at scale 8.
func goldenLock(t *testing.T, scheme string, keyBits int, seed int64) *statsat.Locked {
	t.Helper()
	bm, _ := statsat.BenchmarkByName("c880")
	orig := bm.BuildScaled(8)
	var l *statsat.Locked
	var err error
	switch scheme {
	case "rll":
		l, err = statsat.LockRLL(orig, keyBits, seed)
	case "antisat":
		l, err = statsat.LockAntiSAT(orig, keyBits, seed)
	case "sfll":
		l, err = statsat.LockSFLLHD(orig, keyBits, 0, seed)
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func baselineSig(res *statsat.BaselineResult, dips string) string {
	return fmt.Sprintf("key=%s iters=%d queries=%d failed=%v dips=%s",
		bits(res.Key), res.Iterations, res.OracleQueries, res.Failed, dips)
}

// TestGoldenTrajectories pins the exact trajectories of all four
// attacks on small seeded locks: keys, iteration counts, oracle-query
// counts and the DIP sequence. The wanted strings were recorded with
// the solver's earlier pointer-based clause store and the per-key BER
// estimator, the StatSAT rows again when its §IV-C candidates began
// to come from a pool of surviving keys (only sfll0-6 moved), and all
// seven when the miter's DIP-copy gates became non-decision variables
// (every row moved); the solver, the estimator and the attack loops
// may get faster, never different. StatSAT runs with four instances, so forks (and solver
// clones) are on the pinned path.
func TestGoldenTrajectories(t *testing.T) {
	cases := []goldenCase{
		{
			name: "sat/rll-16",
			want: "key=0110100001100110 iters=9 queries=9 failed=false dips=973eabfda85a8d68",
			run: func(t *testing.T) string {
				l := goldenLock(t, "rll", 16, 3)
				rec := statsat.NewTraceRecorder()
				res, err := statsat.StandardSATOpt(l.Circuit, statsat.NewOracle(l.Circuit, l.Key), statsat.SATOptions{Tracer: rec})
				if err != nil {
					t.Fatal(err)
				}
				return baselineSig(res, dipHash(rec))
			},
		},
		{
			name: "sat/antisat-10",
			want: "key=0000000000 iters=32 queries=32 failed=false dips=4e7aa94fbf53c734",
			run: func(t *testing.T) string {
				l := goldenLock(t, "antisat", 10, 4)
				rec := statsat.NewTraceRecorder()
				res, err := statsat.StandardSATOpt(l.Circuit, statsat.NewOracle(l.Circuit, l.Key), statsat.SATOptions{Tracer: rec})
				if err != nil {
					t.Fatal(err)
				}
				return baselineSig(res, dipHash(rec))
			},
		},
		{
			name: "psat/antisat-8@0.001",
			want: "key=00000000 iters=16 queries=1600 failed=false dips=0779b18175493535",
			run: func(t *testing.T) string {
				l := goldenLock(t, "antisat", 8, 5)
				rec := statsat.NewTraceRecorder()
				orc := statsat.NewNoisyOracle(l.Circuit, l.Key, 0.001, 11)
				res, err := statsat.PSAT(l.Circuit, orc, statsat.PSATOptions{Ns: 100, Seed: 12, Tracer: rec})
				if err != nil {
					t.Fatal(err)
				}
				return baselineSig(res, dipHash(rec))
			},
		},
		{
			name: "appsat/rll-32",
			want: "key=00011000100001001110011101111110 iters=13 queries=63 failed=false dips=c8b4a557fe7d6029 rounds=1",
			run: func(t *testing.T) string {
				// AppSAT emits no dip_found events; hash every chip query
				// (DIPs and reconciliation patterns) instead.
				l := goldenLock(t, "rll", 32, 6)
				orc := &queryHasher{Oracle: statsat.NewOracle(l.Circuit, l.Key), h: fnv.New64a()}
				res, err := statsat.AppSAT(l.Circuit, orc, statsat.AppSATOptions{Seed: 13})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%s rounds=%d", baselineSig(&res.Result, fmt.Sprintf("%016x", orc.h.Sum64())), res.Rounds)
			},
		},
		{
			name: "statsat/antisat-8@0.01",
			want: "keys=00010001 iters=17 queries=3072 eval_queries=7680 forks=0 created=1 dips=97a8596bf042996e",
			run: func(t *testing.T) string {
				return statsatSig(t, goldenLock(t, "antisat", 8, 7), 21)
			},
		},
		{
			name: "statsat/sfll0-6@0.01",
			want: "keys=101110,001001,111001,100001 iters=46 queries=7296 eval_queries=7680 forks=3 created=4 dips=5dc78b682f1586ce",
			run: func(t *testing.T) string {
				return statsatSig(t, goldenLock(t, "sfll", 6, 1), 21)
			},
		},
		{
			name: "statsat/rll-8@0.01",
			want: "keys=10010011 iters=5 queries=768 eval_queries=7680 forks=0 created=1 dips=47f14f9de72e8566",
			run: func(t *testing.T) string {
				return statsatSig(t, goldenLock(t, "rll", 8, 9), 23)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t); got != tc.want {
				t.Errorf("trajectory changed:\n got  %s\n want %s", got, tc.want)
			}
		})
	}
}

// statsatSig runs StatSAT at ε=1% with four instances and small
// budgets and summarises its trajectory.
func statsatSig(t *testing.T, l *statsat.Locked, seed int64) string {
	t.Helper()
	rec := statsat.NewTraceRecorder()
	orc := statsat.NewNoisyOracle(l.Circuit, l.Key, 0.01, seed)
	res, err := statsat.Attack(l.Circuit, orc, statsat.Options{
		Ns: 150, NSatis: 12, NEval: 40, EvalNs: 150, NInst: 4,
		EpsG: 0.01, Seed: seed, Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(res.Keys))
	for i, k := range res.Keys {
		keys[i] = bits(k.Key)
	}
	return fmt.Sprintf("keys=%s iters=%d queries=%d eval_queries=%d forks=%d created=%d dips=%s",
		strings.Join(keys, ","), res.TotalIterations, res.OracleQueries, res.EvalQueries,
		res.Forks, res.InstancesCreated, dipHash(rec))
}
