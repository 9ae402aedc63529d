package exp

import (
	"context"
	"fmt"
	"os"
	"testing"
)

// TestPaperPilotC3540A runs ONE full-size paper-profile point —
// c3540 (1669 gates) locked with 16-bit SFLL-HD at eps_g = 1.25%,
// Ns=500, N_eval=2000 — as evidence that the paper profile is viable
// end-to-end. It takes many minutes, so it only runs when
// STATSAT_PAPER_PILOT=1 is set:
//
//	STATSAT_PAPER_PILOT=1 go test ./internal/exp -run TestPaperPilot -v -timeout 2h
func TestPaperPilotC3540A(t *testing.T) {
	if os.Getenv("STATSAT_PAPER_PILOT") == "" {
		t.Skip("set STATSAT_PAPER_PILOT=1 to run the full-size paper-profile pilot")
	}
	p := Paper
	wl, err := BuildWorkload(p, "c3540")
	if err != nil {
		t.Fatal(err)
	}
	s := wl.Orig.Summary()
	fmt.Printf("pilot workload: %s %d/%d/%d, %s %d key bits\n",
		s.Name, s.Inputs, s.Gates, s.Outputs, wl.LockName(), wl.Locked.Circuit.NumKeys())

	const eps = 0.0125 // the paper's c3540 point A
	for nInst := 1; nInst <= 4; nInst *= 2 {
		opts := p.attackOpts(eps, nInst, p.Seed)
		out, err := runAttack(context.Background(), p, wl, eps, opts,
			deriveSeed(p.Seed, "pilot-oracle", nInst), fmt.Sprintf("pilot/c3540/n%d", nInst))
		if err != nil {
			t.Fatal(err)
		}
		if out.Res == nil || out.Res.Best == nil {
			fmt.Printf("N_inst=%d: no key\n", nInst)
			continue
		}
		fmt.Printf("N_inst=%d: correct=%v HD=%.4f iters=%d T_attack=%v T_eval/key=%v queries=%d\n",
			nInst, out.CorrectAny, out.Res.Best.HD, out.Res.Best.Iterations,
			out.Res.AttackDuration, out.Res.EvalPerKey, out.Res.OracleQueries)
		if out.CorrectAny {
			return
		}
	}
	t.Error("paper-profile pilot did not recover the correct key within N_inst=4")
}
