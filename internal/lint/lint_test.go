package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFixtures drives every check over its fixture package and
// asserts the exact finding positions via the `// want` annotations.
// The full pipeline runs (scoping and suppression included), so each
// fixture is also implicitly asserted clean under the other checks.
func TestCheckFixtures(t *testing.T) {
	for _, c := range DefaultChecks() {
		t.Run(c.Name(), func(t *testing.T) {
			dir := filepath.Join("testdata", c.Name())
			mismatches, err := FixtureMismatches(dir)
			if err != nil {
				t.Fatalf("FixtureMismatches(%s): %v", dir, err)
			}
			for _, m := range mismatches {
				t.Error(m)
			}
		})
	}
}

// TestCheckMetadata pins the catalogue: names are unique and non-empty
// and every check documents itself (docs/LINTING.md is generated from
// these strings by hand; keep them meaningful).
func TestCheckMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range DefaultChecks() {
		if c.Name() == "" || c.Doc() == "" {
			t.Errorf("check %T: empty Name or Doc", c)
		}
		if seen[c.Name()] {
			t.Errorf("duplicate check name %q", c.Name())
		}
		seen[c.Name()] = true
	}
	for _, name := range []string{"globalrand", "walltime", "bufretain", "tracegate", "floateq", "ctxflow", "lockscope", "seedflow"} {
		if !seen[name] {
			t.Errorf("catalogue is missing check %q", name)
		}
	}
}

// TestSuppression exercises the //lint:ignore machinery end to end on
// testdata/suppress: two correctly suppressed globalrand findings must
// vanish, a malformed directive (no reason) must surface both the
// [lint] finding and the finding it failed to suppress, and an unused
// directive must be reported.
func TestSuppression(t *testing.T) {
	dir := filepath.Join("testdata", "suppress")
	pkgs, err := Load(dir, []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	findings := RunChecks(pkgs, DefaultChecks())

	_, malformedLine, err := DirectiveLine(dir, "lint:ignore globalrand")
	if err != nil || malformedLine == 0 {
		t.Fatalf("locating malformed directive: line=%d err=%v", malformedLine, err)
	}
	_, unusedLine, err := DirectiveLine(dir, "lint:ignore walltime fixture: nothing on the next line triggers walltime")
	if err != nil || unusedLine == 0 {
		t.Fatalf("locating unused directive: line=%d err=%v", unusedLine, err)
	}

	type want struct {
		line    int
		check   string
		message string
	}
	wants := []want{
		{malformedLine, "lint", "malformed //lint:ignore directive"},
		{malformedLine + 1, "globalrand", "use of global math/rand.Intn"},
		{unusedLine, "lint", "unused //lint:ignore walltime directive"},
	}
	if len(findings) != len(wants) {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
		t.Fatalf("got %d findings, want %d", len(findings), len(wants))
	}
	for i, w := range wants {
		f := findings[i]
		if f.Pos.Line != w.line || f.Check != w.check || !strings.Contains(f.Message, w.message) {
			t.Errorf("finding %d = %s; want line %d check %s message containing %q", i, f, w.line, w.check, w.message)
		}
	}
}

// TestExpandSkipsTestdata: the recursive pattern must not descend into
// testdata (fixtures contain deliberate violations), while explicitly
// named fixture directories must still load.
func TestExpandSkipsTestdata(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Expand(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand(./...) descended into %s", d)
		}
	}
	explicit, err := l.Expand(".", []string{"testdata/clean"})
	if err != nil {
		t.Fatal(err)
	}
	if len(explicit) != 1 {
		t.Errorf("Expand(testdata/clean) = %v, want exactly the fixture dir", explicit)
	}
}

// TestCleanFixture: the pipeline reports nothing on the clean package.
func TestCleanFixture(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "clean"), []string{"."})
	if err != nil {
		t.Fatal(err)
	}
	if findings := RunChecks(pkgs, DefaultChecks()); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// TestWallTimeScope pins the sanctioned-package allowlist: the four
// timing packages are exempt, everything else is in scope.
func TestWallTimeScope(t *testing.T) {
	c := WallTime{}
	for _, path := range []string{"statsat/internal/trace", "statsat/internal/engine", "statsat/internal/attack", "statsat/internal/core"} {
		if c.Applies(path) {
			t.Errorf("walltime should not apply to sanctioned package %s", path)
		}
	}
	for _, path := range []string{"statsat", "statsat/internal/exp", "statsat/internal/gen", "statsat/cmd/experiments"} {
		if !c.Applies(path) {
			t.Errorf("walltime should apply to %s", path)
		}
	}
}

// TestExampleScope pins the examples-as-templates rule: the seed and
// randomness provenance checks cover examples/ (they are what users
// copy first), while the concurrency and attack-layer checks stay
// internal-only — examples are single-goroutine mains.
func TestExampleScope(t *testing.T) {
	const ex = "statsat/examples/quickstart"
	for _, c := range []Check{GlobalRand{}, SeedFlow{}} {
		if !c.Applies(ex) {
			t.Errorf("%s should apply to %s", c.Name(), ex)
		}
	}
	for _, c := range []Check{LockScope{}, TraceGate{}, CtxFlow{}} {
		if c.Applies(ex) {
			t.Errorf("%s should not apply to %s", c.Name(), ex)
		}
	}
}

// TestExpandIncludesExamples: the recursive walk from the module root
// reaches the examples tree, so the scoping asserted by
// TestExampleScope is actually exercised by `statlint ./...`.
func TestExpandIncludesExamples(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Expand(l.modRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range dirs {
		if strings.HasSuffix(d, filepath.Join("examples", "quickstart")) {
			found = true
		}
	}
	if !found {
		t.Errorf("Expand(./...) from the module root missed examples/quickstart; got %d dirs", len(dirs))
	}
}

// TestCtxFlowScope pins the attack-layer scope: the three packages the
// cancellation contract flows through are checked, the rest are not
// (cmd/ tools and tests construct root contexts legitimately).
func TestCtxFlowScope(t *testing.T) {
	c := CtxFlow{}
	for _, path := range []string{"statsat/internal/engine", "statsat/internal/attack", "statsat/internal/core"} {
		if !c.Applies(path) {
			t.Errorf("ctxflow should apply to %s", path)
		}
	}
	for _, path := range []string{"statsat", "statsat/internal/exp", "statsat/internal/sat", "statsat/cmd/statsat", "statsat/cmd/experiments"} {
		if c.Applies(path) {
			t.Errorf("ctxflow should not apply to %s", path)
		}
	}
}
