package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages from a module tree without
// any external dependency: module-internal imports are resolved
// straight from the module directory (recursively, memoized), and
// everything else — in this repo that means only the standard library
// — is delegated to the stdlib source importer, which reads GOROOT
// sources. No `go list` subprocess, no export data, no x/tools.
// _test.go files are never loaded: the determinism invariants target
// production code, and tests legitimately use fixed ad-hoc seeds and
// wall-clock timing.
type Loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package // by import path; nil entry = in progress
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, path, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		modRoot: root,
		modPath: path,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
	}, nil
}

// findModule walks up from dir to the enclosing go.mod and extracts
// the module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// Expand resolves command-line patterns relative to dir into package
// directories. Supported forms: "./..." and "dir/..." (recursive walk
// skipping testdata, hidden and underscore directories), plain
// directory paths, and module-internal import paths. Explicitly named
// directories are returned even inside testdata — that is how the
// driver's own tests point it at known-bad fixtures.
func (l *Loader) Expand(dir string, patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			base := rest
			if base == "." || base == "" {
				base = dir
			} else if !filepath.IsAbs(base) {
				base = filepath.Join(dir, base)
			}
			err := filepath.WalkDir(base, func(path string, de os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if de.IsDir() {
					name := de.Name()
					if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
						return filepath.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(de.Name(), ".go") && !strings.HasSuffix(de.Name(), "_test.go") {
					add(filepath.Dir(path))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		p := pat
		if !filepath.IsAbs(p) {
			if strings.HasPrefix(pat, l.modPath+"/") || pat == l.modPath {
				p = filepath.Join(l.modRoot, strings.TrimPrefix(strings.TrimPrefix(pat, l.modPath), "/"))
			} else {
				p = filepath.Join(dir, pat)
			}
		}
		if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: not a package directory", pat)
		}
		add(p)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadDirs type-checks each directory as one package.
func (l *Loader) LoadDirs(dirs []string) ([]*Package, error) {
	var out []*Package
	for _, d := range dirs {
		path, err := l.importPathFor(d)
		if err != nil {
			return nil, err
		}
		p, err := l.load(path, d)
		if err != nil {
			return nil, err
		}
		if p != nil {
			out = append(out, p)
		}
	}
	return out, nil
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.modRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.modRoot)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// load parses and type-checks one package (memoized). Returns
// (nil, nil) for a directory with no non-test Go files. Files excluded
// on the current platform — by a //go:build constraint or a
// _GOOS/_GOARCH filename suffix — are dropped before type-checking by
// go/build's own rule (build.Default.MatchFile), exactly as `go build`
// would drop them; without this a single foo_windows.go turns the
// whole package into a type error on linux.
func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // cycle marker

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		delete(l.pkgs, path)
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: (*moduleImporter)(l),
		// The tree already passed `go build` in the verify chain; any
		// residual error (e.g. in fixtures) should fail loudly.
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// moduleImporter routes module-internal imports to the loader and
// everything else to the stdlib source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		p, err := l.load(path, filepath.Join(l.modRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load is the one-call convenience used by cmd/statlint and the test
// harness: expand patterns relative to dir, load, return packages.
func Load(dir string, patterns []string) ([]*Package, error) {
	l, err := NewLoader(dir)
	if err != nil {
		return nil, err
	}
	dirs, err := l.Expand(dir, patterns)
	if err != nil {
		return nil, err
	}
	return l.LoadDirs(dirs)
}
