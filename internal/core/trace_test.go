package core

import (
	"context"
	"testing"

	"statsat/internal/oracle"
	"statsat/internal/trace"
)

// checkTraceInvariants validates a recorded event stream against the
// attack's Result — the contract documented in docs/OBSERVABILITY.md.
func checkTraceInvariants(t *testing.T, events []trace.Event, res *Result) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	if events[0].Type != trace.AttackStart || events[0].Attack != "statsat" {
		t.Fatalf("first event = %+v, want attack_start", events[0])
	}
	if events[0].Circuit == nil || events[0].Opts == nil {
		t.Fatal("attack_start missing circuit/opts payloads")
	}

	seen := make(map[int64]bool)
	counts := make(map[trace.EventType]int)
	var totals *trace.TotalsInfo
	for i, ev := range events {
		if ev.Seq != int64(i+1) || seen[ev.Seq] {
			t.Fatalf("event %d has seq %d (want dense, unique, emission-ordered)", i, ev.Seq)
		}
		seen[ev.Seq] = true
		if i > 0 && ev.TNs < events[i-1].TNs {
			t.Fatalf("timestamps not monotonic at seq %d", ev.Seq)
		}
		counts[ev.Type]++
		if ev.Type == trace.AttackEnd {
			totals = ev.Totals
		}
		switch ev.Type {
		case trace.AttackStart, trace.AttackEnd, trace.EvalStart, trace.EvalEnd:
			if ev.Instance != -1 {
				t.Errorf("%s has instance %d, want -1", ev.Type, ev.Instance)
			}
		case trace.IterStart, trace.IterEnd:
			if ev.Instance < 0 || ev.Iter < 1 || ev.Solver == nil {
				t.Errorf("%s missing instance/iter/solver: %+v", ev.Type, ev)
			}
		case trace.DIPFound:
			if ev.DIP == nil || len(ev.DIP.Y) != ev.DIP.Outputs {
				t.Errorf("dip_found payload malformed: %+v", ev.DIP)
			}
		case trace.BitsGated:
			if ev.Gating == nil {
				t.Errorf("bits_gated without gating payload")
			}
		case trace.Fork:
			if ev.Fork == nil || ev.Fork.Child <= 0 {
				t.Errorf("fork payload malformed: %+v", ev.Fork)
			}
		case trace.ForceProceed:
			if ev.Fork == nil || ev.Fork.Child != 0 {
				t.Errorf("force_proceed payload malformed: %+v", ev.Fork)
			}
		case trace.KeyAccepted:
			if ev.Key == nil || ev.Key.Key == "" {
				t.Errorf("key_accepted without key")
			}
		}
	}

	if counts[trace.AttackStart] != 1 || counts[trace.AttackEnd] != 1 {
		t.Errorf("attack_start/end counts = %d/%d, want 1/1",
			counts[trace.AttackStart], counts[trace.AttackEnd])
	}
	if counts[trace.IterStart] != counts[trace.IterEnd] {
		t.Errorf("iteration_start (%d) != iteration_end (%d)",
			counts[trace.IterStart], counts[trace.IterEnd])
	}
	if counts[trace.IterStart] != res.TotalIterations {
		t.Errorf("iteration_start count %d != Result.TotalIterations %d",
			counts[trace.IterStart], res.TotalIterations)
	}
	if counts[trace.DIPFound] != counts[trace.BitsGated] {
		t.Errorf("dip_found (%d) and bits_gated (%d) not paired",
			counts[trace.DIPFound], counts[trace.BitsGated])
	}
	if counts[trace.DIPFound] == 0 {
		t.Error("no dip_found events")
	}
	if counts[trace.Fork] != res.Forks {
		t.Errorf("fork events %d != Result.Forks %d", counts[trace.Fork], res.Forks)
	}
	if counts[trace.ForceProceed] != res.ForceProceeds {
		t.Errorf("force_proceed events %d != Result.ForceProceeds %d",
			counts[trace.ForceProceed], res.ForceProceeds)
	}
	if counts[trace.InstanceDead] != res.DeadInstances {
		t.Errorf("instance_dead events %d != Result.DeadInstances %d",
			counts[trace.InstanceDead], res.DeadInstances)
	}
	if counts[trace.KeyAccepted] != len(res.Keys) {
		t.Errorf("key_accepted events %d != %d keys", counts[trace.KeyAccepted], len(res.Keys))
	}
	if counts[trace.KeyScored] != len(res.Keys) {
		t.Errorf("key_scored events %d != %d keys", counts[trace.KeyScored], len(res.Keys))
	}
	if counts[trace.EvalStart] != 1 || counts[trace.EvalEnd] != 1 {
		t.Errorf("eval_start/end counts = %d/%d, want 1/1",
			counts[trace.EvalStart], counts[trace.EvalEnd])
	}

	if totals == nil {
		t.Fatal("attack_end missing totals")
	}
	if totals.Keys != len(res.Keys) || totals.Iterations != res.TotalIterations ||
		totals.Forks != res.Forks || totals.ForceProceeds != res.ForceProceeds ||
		totals.DeadInstances != res.DeadInstances ||
		totals.InstancesCreated != res.InstancesCreated ||
		totals.OracleQueries != res.OracleQueries {
		t.Errorf("attack_end totals %+v disagree with Result", totals)
	}
}

func TestAttackTraceSequential(t *testing.T) {
	_, l := lockedSmall(t, 2, 10)
	const eps = 0.01
	orc := oracle.NewProbabilistic(l.Circuit, l.Key, eps, 20)
	rec := trace.NewRecorder()
	opts := quickOpts(eps, 8)
	opts.Tracer = rec
	res, err := Attack(context.Background(), l.Circuit, orc, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkTraceInvariants(t, rec.Events(), res)
}
