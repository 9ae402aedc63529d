// netlist_workflow walks the full file-based flow a practitioner would
// use: generate a netlist, lock it, serialise it to both exchange
// formats (.bench and structural Verilog), re-load it as the attacker
// would (netlist only, no key), and attack the activated chip. It also
// shows the scan-chain handling for sequential (.bench DFF) designs.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"statsat"
)

func main() {
	dir, err := os.MkdirTemp("", "statsat-flow-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Designer side -------------------------------------------------
	orig := statsat.RandomCircuit("design", 16, 200, 8, 2024)
	locked, err := statsat.LockSLL(orig, 16, 7)
	if err != nil {
		log.Fatal(err)
	}
	// Light resynthesis before tape-out.
	cleaned, err := statsat.Simplify(locked.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("designer: locked %q with %s (%d key bits), %d gates after clean-up\n",
		orig.Name, locked.Technique, len(locked.Key), cleaned.NumLogicGates())

	benchPath := filepath.Join(dir, "design_locked.bench")
	verilogPath := filepath.Join(dir, "design_locked.v")
	mustWrite(benchPath, statsat.FormatBench(cleaned))
	mustWrite(verilogPath, statsat.FormatVerilog(cleaned))
	fmt.Printf("designer: wrote %s and %s\n", filepath.Base(benchPath), filepath.Base(verilogPath))

	// --- Attacker side --------------------------------------------------
	// The foundry attacker reverse-engineers the layout into a netlist;
	// here: read the Verilog back. They have NO key.
	f, err := os.Open(verilogPath)
	if err != nil {
		log.Fatal(err)
	}
	stolen, err := statsat.ParseVerilog(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attacker: recovered netlist with %d key inputs\n", stolen.NumKeys())

	// They buy an activated (noisy) chip and run StatSAT.
	const eps = 0.01
	orc := statsat.NewNoisyOracle(stolen, locked.Key, eps, 99)
	res, err := statsat.Attack(stolen, orc, statsat.Options{
		Ns: 512, NSatis: 12, NEval: 60, NInst: 16, EpsG: eps, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	eq, err := statsat.KeysEquivalent(stolen, res.Best.Key, locked.Key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attacker: best key HD=%.4f correct=%v (%d keys, %v attack time)\n",
		res.Best.HD, eq, len(res.Keys), res.AttackDuration.Round(1e6))

	// --- Sequential designs ----------------------------------------------
	// ISCAS89-style netlists carry DFFs; the parser applies the
	// standard full-scan conversion (Q -> pseudo-PI, D -> pseudo-PO).
	seq := `# tiny sequential design
INPUT(a)
OUTPUT(y)
q0 = DFF(d0)
d0 = XOR(a, q0)
y  = AND(a, q0)
`
	c, err := statsat.ParseBenchString(seq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential: %d PIs (incl. scan), %d POs (incl. scan)\n", c.NumPIs(), c.NumPOs())
}

func mustWrite(path, content string) {
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
}
