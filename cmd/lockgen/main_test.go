package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLoadCircuitFromBenchmark(t *testing.T) {
	c, err := loadCircuit("", "c880", 8, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPIs() == 0 || c.NumLogicGates() == 0 {
		t.Error("empty benchmark circuit")
	}
}

func TestLoadCircuitC17(t *testing.T) {
	c, err := loadCircuit("", "c17", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogicGates() != 6 {
		t.Errorf("c17 gates = %d", c.NumLogicGates())
	}
}

func TestLoadCircuitFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bench")
	src := "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := loadCircuit(path, "", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogicGates() != 1 {
		t.Error("parse failed")
	}
}

func TestLoadCircuitErrors(t *testing.T) {
	if _, err := loadCircuit("", "", 1, ""); err == nil {
		t.Error("want error when neither -in nor -benchmark given")
	}
	if _, err := loadCircuit("x.bench", "c17", 1, ""); err == nil {
		t.Error("want error when both given")
	}
	if _, err := loadCircuit("", "unknown", 1, ""); err == nil {
		t.Error("want error for unknown benchmark")
	}
	if _, err := loadCircuit("/nonexistent.bench", "", 1, ""); err == nil {
		t.Error("want error for missing file")
	}
}
