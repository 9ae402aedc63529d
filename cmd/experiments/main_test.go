package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestFlagValidation(t *testing.T) {
	if code, _, _ := runTool(t, "-no-such-flag"); code != 2 {
		t.Errorf("unknown flag exit = %d, want 2", code)
	}
	if code, _, errOut := runTool(t, "-profile", "warp"); code != 1 || !strings.Contains(errOut, "unknown profile") {
		t.Errorf("unknown profile exit = %d stderr = %q", code, errOut)
	}
	if code, _, errOut := runTool(t, "-exp", "table99"); code != 1 || !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("unknown experiment exit = %d stderr = %q", code, errOut)
	}
}

func TestTable1Smoke(t *testing.T) {
	// table1 summarises the benchmark suite without running attacks, so
	// it is the cheapest end-to-end pass through the tool.
	code, out, errOut := runTool(t, "-exp", "table1", "-profile", "smoke")
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	if !strings.Contains(out, "table1 completed") {
		t.Fatalf("completion banner missing: %q", out)
	}
}

func TestCSVOutput(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	code, _, errOut := runTool(t, "-exp", "table1", "-profile", "smoke", "-csv", dir)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	b, err := os.ReadFile(filepath.Join(dir, "table1_smoke.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.Split(bytes.TrimSpace(b), []byte("\n"))) < 2 {
		t.Fatalf("CSV has no data rows: %q", b)
	}
}

func TestCancelledContextExitsNonZero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	// fig4 runs real attacks; a pre-cancelled context must stop the
	// scheduler before any cell completes and surface the interruption.
	code := run(ctx, []string{"-exp", "fig4", "-profile", "smoke"}, &out, &errb)
	if code == 0 {
		t.Fatalf("cancelled run exited 0 (stdout %q)", out.String())
	}
}

func TestHasRows(t *testing.T) {
	if hasRows(nil) {
		t.Error("hasRows(nil) = true")
	}
	var typedNil []int
	if hasRows(typedNil) {
		t.Error("hasRows(typed nil slice) = true")
	}
	if !hasRows([]int{1}) {
		t.Error("hasRows(non-empty) = false")
	}
	if hasRows(42) {
		t.Error("hasRows(non-slice) = true")
	}
}

// TestCPUProfileFlag checks that -cpuprofile leaves a non-empty,
// gzip-framed profile behind, as runtime/pprof writes it.
func TestCPUProfileFlag(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	if code, _, errOut := runTool(t, "-exp", "table1", "-profile", "smoke", "-cpuprofile", prof); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, errOut)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is not gzip-framed: % x", b[:min(len(b), 8)])
	}
}
