package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statsat/internal/attack"
	"statsat/internal/engine"
	"statsat/internal/gen"
	"statsat/internal/lock"
	"statsat/internal/netio"
)

func TestLoadKeyFromString(t *testing.T) {
	key, err := loadKey("1010", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if key[i] != want[i] {
			t.Fatalf("key = %v", key)
		}
	}
}

func TestLoadKeyFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k")
	if err := os.WriteFile(path, []byte("011\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	key, err := loadKey("", path, 3)
	if err != nil {
		t.Fatal(err)
	}
	if key[0] || !key[1] || !key[2] {
		t.Fatalf("key = %v", key)
	}
}

func TestLoadKeyErrors(t *testing.T) {
	if _, err := loadKey("", "", 3); err == nil {
		t.Error("want error for missing key")
	}
	if _, err := loadKey("10", "", 3); err == nil {
		t.Error("want error for width mismatch")
	}
	if _, err := loadKey("1x0", "", 3); err == nil {
		t.Error("want error for non-binary key")
	}
	if _, err := loadKey("", "/nonexistent/key/file", 3); err == nil {
		t.Error("want error for unreadable file")
	}
}

// TestReportBaselineMarksCorrectKey checks the SAT/PSAT report line
// against ground truth: the true key of an RLL-locked c17 earns the
// "(CORRECT)" marker, a key with one bit flipped does not.
func TestReportBaselineMarksCorrectKey(t *testing.T) {
	l, err := lock.RLL(gen.C17(), 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]bool(nil), l.Key...)
	wrong[0] = !wrong[0]
	for _, tc := range []struct {
		name string
		key  []bool
		want bool
	}{
		{"true key", l.Key, true},
		{"flipped bit", wrong, false},
	} {
		var buf bytes.Buffer
		res := &attack.Result{Key: tc.key, Iterations: 3}
		if err := reportBaseline(&buf, "standard SAT", res, l.Circuit, l.Key); err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(buf.String(), "(CORRECT)"); got != tc.want {
			t.Errorf("%s: marker present = %v, want %v in %q", tc.name, got, tc.want, buf.String())
		}
	}
}

// TestCPUProfileFlag runs the SAT attack on an RLL-locked c17 with
// -cpuprofile and checks that the profile was written: a non-empty,
// gzip-framed file, as runtime/pprof writes it.
func TestCPUProfileFlag(t *testing.T) {
	l, err := lock.RLL(gen.C17(), 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, prof := filepath.Join(dir, "c17.bench"), filepath.Join(dir, "cpu.pprof")
	if err := netio.WriteFile(in, l.Circuit, netio.Bench); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-in", in, "-key", engine.BitString(l.Key), "-attack", "sat", "-cpuprofile", prof}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile is not gzip-framed: % x", b[:min(len(b), 8)])
	}
}
