package lint

import (
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeModule materialises a throwaway module for loader tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const testGoMod = "module example.test\n\ngo 1.21\n"

// TestLoadImportCycle: a module-internal import cycle must surface as
// a load error naming the cycle, not as a hang or a type-check panic.
func TestLoadImportCycle(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":   testGoMod,
		"a/a.go":   "package a\n\nimport \"example.test/b\"\n\nvar A = b.B\n",
		"b/b.go":   "package b\n\nimport \"example.test/a\"\n\nvar B = 1\n\nvar _ = a.A\n",
		"m/m.go":   "package m\n",
		"m/doc.go": "package m\n",
	})
	_, err := Load(dir, []string{"a"})
	if err == nil {
		t.Fatal("Load on a cyclic module succeeded")
	}
	if !strings.Contains(err.Error(), "import cycle") {
		t.Errorf("error %q does not mention the import cycle", err)
	}
}

// TestLoadMissingPackage: an import of a module path with no directory
// behind it fails with the path in the message.
func TestLoadMissingPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		"a/a.go": "package a\n\nimport \"example.test/nope\"\n\nvar A = nope.X\n",
	})
	_, err := Load(dir, []string{"a"})
	if err == nil {
		t.Fatal("Load with a missing internal import succeeded")
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Errorf("error %q does not name the missing package", err)
	}
}

// TestLoadBuildConstraints: files excluded on the current platform —
// by //go:build expression or filename suffix — must be dropped before
// type-checking. Every excluded file redeclares Impl, so accidental
// inclusion is a guaranteed type error, and the included tagged file
// proves satisfied constraints still load.
func TestLoadBuildConstraints(t *testing.T) {
	otherOS := "windows"
	if runtime.GOOS == "windows" {
		otherOS = "linux"
	}
	otherArch := "arm64"
	if runtime.GOARCH == "arm64" {
		otherArch = "amd64"
	}
	dir := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		"p/p.go": "package p\n\nconst Impl = \"generic\"\n",
		"p/tagged.go": fmt.Sprintf(
			"//go:build %s\n\npackage p\n\nconst FromTagged = 1\n", runtime.GOOS),
		"p/excluded_expr.go": "//go:build windows && plan9\n\npackage p\n\nconst Impl = \"impossible\"\n",
		"p/excluded_neg.go": fmt.Sprintf(
			"//go:build !%s\n\npackage p\n\nconst Impl = \"negated\"\n", runtime.GOOS),
		fmt.Sprintf("p/impl_%s.go", otherOS):                    "package p\n\nconst Impl = \"other os\"\n",
		fmt.Sprintf("p/impl_%s_%s.go", otherOS, runtime.GOARCH): "package p\n\nconst Impl = \"other os, this arch\"\n",
		fmt.Sprintf("p/impl_%s.go", otherArch):                  "package p\n\nconst Impl = \"other arch\"\n",
	})
	pkgs, err := Load(dir, []string{"p"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if got := len(p.Files); got != 2 {
		for _, f := range p.Files {
			t.Logf("loaded: %s", p.Fset.Position(f.Pos()).Filename)
		}
		t.Errorf("loaded %d files, want 2 (p.go + tagged.go)", got)
	}
	for _, sym := range []string{"Impl", "FromTagged"} {
		if p.Types.Scope().Lookup(sym) == nil {
			t.Errorf("package scope is missing %s", sym)
		}
	}
}

// TestFileMatchesPlatform pins the filename-suffix rules the loader
// takes from build.Default.MatchFile, including the non-rules: a bare
// GOOS name and an unknown suffix do not constrain.
func TestFileMatchesPlatform(t *testing.T) {
	cases := []struct {
		name string
		want bool
	}{
		{"plain.go", true},
		{"linux.go", true},                  // bare GOOS is not a constraint
		{"util_helper.go", true},            // unknown suffix
		{"x_" + runtime.GOOS + ".go", true}, // this OS
		{"x_" + runtime.GOOS + "_" + runtime.GOARCH + ".go", true},
		{"x_" + runtime.GOOS + "_test.go", true},
		{"x_plan9.go", runtime.GOOS == "plan9"},
		{"x_wasm.go", runtime.GOARCH == "wasm"},
		{"x_plan9_" + runtime.GOARCH + ".go", runtime.GOOS == "plan9"},
		{"x_" + runtime.GOOS + "_wasm.go", runtime.GOARCH == "wasm"},
	}
	dir := t.TempDir()
	for _, c := range cases {
		if err := os.WriteFile(filepath.Join(dir, c.name), []byte("package p\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := build.Default.MatchFile(dir, c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("MatchFile(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}
