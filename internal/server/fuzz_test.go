package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"statsat"
	"statsat/internal/engine"
	"statsat/internal/netio"
)

// FuzzSpec feeds arbitrary POST /v1/jobs bodies through the handler's
// own decoding and then materialize. Either the body does not decode
// (a 400), or materialize fails with an error wrapping errSpec (a 400,
// never a 500), or the job is whole: its circuit validates, and the
// oracle's pinout and the key's width match it. Nothing panics. Run
// `go test -fuzz=FuzzSpec ./internal/server` to fuzz beyond the seeds (the
// seed corpus alone runs in every `go test`).
func FuzzSpec(f *testing.F) {
	lk, err := statsat.LockRLL(statsat.C17(), 3, 7)
	if err != nil {
		f.Fatal(err)
	}
	for _, format := range []netio.Format{netio.Bench, netio.Verilog} {
		var src bytes.Buffer
		if err := netio.Write(&src, lk.Circuit, format); err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(Spec{Attack: "sat", Netlist: src.String(), Format: string(format), Key: engine.BitString(lk.Key)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	for _, body := range []string{
		// The server-smoke and persistence-smoke CI jobs' specs.
		`{"attack": "statsat", "benchmark": "c880", "scale": 8, "lock": "antisat", "key_bits": 14,
		  "options": {"ns": 20, "max_iter": 1048576}}`,
		`{"attack": "statsat", "benchmark": "c880", "scale": 8, "lock": "antisat", "key_bits": 14, "seed": 5,
		  "options": {"ns": 20, "max_iter": 1048576}}`,
		`{"attack": "appsat", "benchmark": "c17", "lock": "sarlock", "key_bits": 4, "eps": 0.01, "timeout_ms": 100}`,
		`{"benchmark": "c17", "lock": "sfll", "key_bits": 3, "options": {"epsg": 0.02, "ninst": 2}}`,
		// Fields older daemons accepted: solver racing and parallel
		// StatSAT instances.
		`{"benchmark": "c17", "options": {"portfolio_workers": 4, "portfolio_racers": 2}}`,
		`{"benchmark": "c17", "options": {"parallel": true}}`,
		`{"netlist": "INPUT(a)\nINPUT(keyinput0)\nOUTPUT(y)\ny = XOR(a, keyinput0)\n", "key": "1"}`,
		`{"netlist": "module m(a,keyinput0,y); input a, keyinput0, keyinput0; output y; xor g(y,a,keyinput0); endmodule",
		  "format": "verilog", "key": "10"}`,
		`{"netlist": "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n", "key": ""}`,
		`{"benchmark": "c17", "eps": 2}`,
		`{}`,
		`[`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		sp, err := decodeSpec(bytes.NewReader([]byte(body)))
		if err != nil {
			return
		}
		mat, err := sp.materialize()
		if err != nil {
			if !errors.Is(err, errSpec) {
				t.Fatalf("materialize: %v does not wrap errSpec", err)
			}
			return
		}
		c := mat.locked
		if err := c.Validate(); err != nil {
			t.Fatalf("materialized an invalid circuit: %v", err)
		}
		if mat.orc.NumInputs() != c.NumPIs() || mat.orc.NumOutputs() != c.NumPOs() {
			t.Fatalf("oracle pinout %d/%d, circuit %d PIs / %d POs",
				mat.orc.NumInputs(), mat.orc.NumOutputs(), c.NumPIs(), c.NumPOs())
		}
		if len(mat.key) != c.NumKeys() || c.NumKeys() == 0 {
			t.Fatalf("key of %d bits for %d key inputs", len(mat.key), c.NumKeys())
		}
		if mat.circuit != (CircuitInfo{Name: c.Name, PIs: c.NumPIs(), POs: c.NumPOs(), Keys: c.NumKeys()}) {
			t.Fatalf("circuit info %+v does not describe the circuit", mat.circuit)
		}
	})
}
