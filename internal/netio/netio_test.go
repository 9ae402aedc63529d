package netio

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statsat/internal/gen"
)

func TestFormatForPath(t *testing.T) {
	cases := map[string]Format{
		"a.bench": Bench,
		"a.v":     Verilog,
		"a.V":     Verilog,
		"a.sv":    Verilog,
		"a.vlg":   Verilog,
		"a.txt":   Bench,
		"a":       Bench,
	}
	for path, want := range cases {
		if got := FormatForPath(path); got != want {
			t.Errorf("FormatForPath(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestParseFormat(t *testing.T) {
	for name, want := range map[string]Format{"bench": Bench, "verilog": Verilog, "v": Verilog, "": ""} {
		got, err := ParseFormat(name)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %q, %v", name, got, err)
		}
	}
	if _, err := ParseFormat("edif"); err == nil {
		t.Error("want error for unknown format")
	}
}

func TestFileRoundTripBothFormats(t *testing.T) {
	dir := t.TempDir()
	orig := gen.Random("rt", 8, 50, 4, 1)
	for _, name := range []string{"c.bench", "c.v"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, orig, ""); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ReadFile(path, "")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.NumPIs() != orig.NumPIs() || back.NumPOs() != orig.NumPOs() {
			t.Errorf("%s: interface mismatch", name)
		}
		pi := make([]bool, orig.NumPIs())
		a := orig.Eval(pi, nil, nil)
		b := back.Eval(pi, nil, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: behaviour changed through file round-trip", name)
			}
		}
	}
}

func TestExplicitFormatOverridesExtension(t *testing.T) {
	dir := t.TempDir()
	orig := gen.C17()
	path := filepath.Join(dir, "weird.txt")
	if err := WriteFile(path, orig, Verilog); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "module") {
		t.Error("explicit Verilog format ignored on write")
	}
	if _, err := ReadFile(path, Verilog); err != nil {
		t.Errorf("explicit Verilog format ignored on read: %v", err)
	}
}

func TestReadFileErrors(t *testing.T) {
	if _, err := ReadFile("/nonexistent/x.bench", ""); err == nil {
		t.Error("want error for missing file")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.bench")
	os.WriteFile(bad, []byte("y = FROB(a)\n"), 0o644)
	if _, err := ReadFile(bad, ""); err == nil {
		t.Error("want parse error")
	}
	if !strings.Contains(func() string { _, err := ReadFile(bad, ""); return err.Error() }(), "bad.bench") {
		t.Error("error should carry the path")
	}
}

func TestWriteFileErrors(t *testing.T) {
	if err := WriteFile("/nonexistent/dir/x.bench", gen.C17(), ""); err == nil {
		t.Error("want error for unwritable path")
	}
}

func TestUnknownFormatErrors(t *testing.T) {
	if _, err := ReadFromStreaming(strings.NewReader(""), "edif"); err == nil {
		t.Error("want read error")
	}
	if err := Write(os.Stderr, gen.C17(), "edif"); err == nil {
		t.Error("want write error")
	}
}

func TestReadFromAndReadString(t *testing.T) {
	orig := gen.C17()
	var sb strings.Builder
	if err := Write(&sb, orig, Bench); err != nil {
		t.Fatal(err)
	}
	src := sb.String()

	// ReadFromStreaming: the reader-based entry point, "" defaults to bench.
	for _, f := range []Format{Bench, ""} {
		c, err := ReadFromStreaming(strings.NewReader(src), f)
		if err != nil {
			t.Fatalf("ReadFromStreaming(%q): %v", f, err)
		}
		if c.NumPIs() != orig.NumPIs() || c.NumPOs() != orig.NumPOs() {
			t.Errorf("ReadFromStreaming(%q): interface mismatch", f)
		}
	}

	// ReadString is sugar over ReadFromStreaming.
	c, err := ReadString(src, Bench)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumPIs() != orig.NumPIs() {
		t.Error("ReadString: interface mismatch")
	}

	// Verilog through the same path.
	var vb strings.Builder
	if err := Write(&vb, orig, Verilog); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFromStreaming(strings.NewReader(vb.String()), Verilog); err != nil {
		t.Errorf("ReadFromStreaming verilog: %v", err)
	}

	if _, err := ReadFromStreaming(strings.NewReader(src), "edif"); err == nil {
		t.Error("want error for unknown format")
	}
}
