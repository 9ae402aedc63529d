package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestBadFixtureExitsNonzero: the driver must exit 1 with a correctly
// formatted, correctly attributed finding for each check's bad
// fixture.
func TestBadFixtureExitsNonzero(t *testing.T) {
	findingLine := regexp.MustCompile(`(?m)^\S*fixture\.go:\d+:\d+: \[\w+\] .+$`)
	for _, check := range []string{"globalrand", "walltime", "bufretain", "tracegate", "floateq", "lockscope", "seedflow"} {
		t.Run(check, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(context.Background(), []string{"../../internal/lint/testdata/" + check}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "["+check+"] ") {
				t.Errorf("output has no [%s] finding:\n%s", check, stdout.String())
			}
			if !findingLine.MatchString(stdout.String()) {
				t.Errorf("output does not match file:line:col: [check] message format:\n%s", stdout.String())
			}
		})
	}
}

// TestCleanFixtureExitsZero: no findings, no output, exit 0.
func TestCleanFixtureExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"../../internal/lint/testdata/clean"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", stdout.String())
	}
}

// TestListCatalogue: -list names every shipped check.
func TestListCatalogue(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, check := range []string{"globalrand", "walltime", "bufretain", "tracegate", "floateq", "ctxflow", "lockscope", "seedflow", "doclinks"} {
		if !strings.Contains(stdout.String(), check) {
			t.Errorf("-list output missing %s:\n%s", check, stdout.String())
		}
	}
}

// TestCatalogueDrift: the `### `name“ headings of docs/LINTING.md's
// check catalogue and the -list output must name exactly the same
// checks, so the documentation cannot silently fall behind the code
// (or keep advertising a removed check).
func TestCatalogueDrift(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "docs", "LINTING.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^### `([a-z]+)`").FindAllStringSubmatch(string(data), -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("docs/LINTING.md has no `### `name`` catalogue headings; the drift gate is parsing nothing")
	}
	for name := range listed {
		if !documented[name] {
			t.Errorf("check %q is in -list but docs/LINTING.md has no `### %s` section", name, name)
		}
	}
	for name := range documented {
		if !listed[name] {
			t.Errorf("docs/LINTING.md documents %q but -list does not ship it (stale heading after a rename?)", name)
		}
	}
}

// TestSuppressionsMode: the inventory lists file:line/check/reason and
// gates on malformed or stale directives. The clean fixture has none;
// the suppress fixture deliberately contains a malformed directive, so
// the mode must exit 1 and say why on stderr.
func TestSuppressionsMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-suppressions", "../../internal/lint/testdata/clean"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("clean: exit code = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "0 suppression(s)") {
		t.Errorf("clean: inventory did not report zero suppressions:\n%s", stdout.String())
	}

	stdout.Reset()
	stderr.Reset()
	code = run(context.Background(), []string{"-suppressions", "../../internal/lint/testdata/suppress"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("suppress: exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "[globalrand] fixture: demonstrates a sanctioned same-line suppression") {
		t.Errorf("inventory is missing the same-line entry:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "stale or malformed") {
		t.Errorf("stderr does not flag the malformed directive: %s", stderr.String())
	}
}

// TestBadPatternExitsTwo: load/usage errors are distinct from
// findings.
func TestBadPatternExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"./no/such/dir"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr: %s", code, stderr.String())
	}
}
