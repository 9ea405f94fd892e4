package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// A Program is a loaded, fully type-checked set of packages sharing one
// FileSet and one types.Object universe.
type Program struct {
	Fset *token.FileSet
	// Pkgs are the source-analyzed packages in dependency order.
	Pkgs []*Package
}

// Load loads the module rooted at dir: the packages matched by patterns
// plus, transitively, every dependency. Packages of the module itself are
// parsed and type-checked from source (so analyzers get their ASTs);
// out-of-module dependencies are imported from compiler export data
// produced by `go list -export`, which the build cache makes cheap on
// repeat runs.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Name,GoFiles,Imports,Export,Standard,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var roots []sourcePkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath string
			Dir        string
			Name       string
			GoFiles    []string
			Export     string
			Standard   bool
			Module     *struct{ Path string }
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		// Module packages (never the standard library) are loaded from
		// source; go list -deps emits dependencies before dependents,
		// which is exactly the type-check order needed.
		if p.Module != nil && !p.Standard {
			files := make([]string, len(p.GoFiles))
			for i, f := range p.GoFiles {
				files[i] = filepath.Join(p.Dir, f)
			}
			roots = append(roots, sourcePkg{path: p.ImportPath, dir: p.Dir, files: files})
		}
	}
	return check(roots, exports)
}

// sourcePkg is one package to be type-checked from source.
type sourcePkg struct {
	path  string
	dir   string
	files []string
}

// check parses and type-checks the given packages, in order, resolving
// imports first against the already-checked set and then against export
// data.
func check(roots []sourcePkg, exports map[string]string) (*Program, error) {
	fset := token.NewFileSet()
	imp := &programImporter{
		source: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		}),
	}
	prog := &Program{Fset: fset}
	for _, r := range roots {
		var files []*ast.File
		for _, name := range r.files {
			af, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			files = append(files, af)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(r.path, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: typecheck %s: %w", r.path, err)
		}
		imp.source[r.path] = tp
		prog.Pkgs = append(prog.Pkgs, &Package{
			Path:  r.path,
			Name:  tp.Name(),
			Dir:   r.dir,
			Files: files,
			Types: tp,
			Info:  info,
		})
	}
	return prog, nil
}

// programImporter resolves imports against the source-checked packages
// first, then against gc export data.
type programImporter struct {
	source map[string]*types.Package
	gc     types.Importer
}

func (i *programImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := i.source[path]; p != nil {
		return p, nil
	}
	return i.gc.Import(path)
}

// LoadFixture loads an analysistest-style fixture tree: root contains
// src/<path>/*.go, one directory per fixture package, imported from each
// other by their path under src. Imports that do not resolve to a fixture
// directory are resolved like any other dependency, via export data.
func LoadFixture(root string) (*Program, error) {
	srcRoot := filepath.Join(root, "src")
	var dirs []string
	err := filepath.Walk(srcRoot, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.IsDir() && path != srcRoot {
			if names, _ := goFilesIn(path); len(names) > 0 {
				dirs = append(dirs, path)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture %s: %w", root, err)
	}
	sort.Strings(dirs)

	// Gather fixture packages and the set of external imports to resolve.
	fixtures := map[string]sourcePkg{}
	var paths []string
	importsOf := map[string][]string{}
	external := map[string]bool{}
	fset := token.NewFileSet() // for import scanning only
	for _, d := range dirs {
		rel, err := filepath.Rel(srcRoot, d)
		if err != nil {
			return nil, err
		}
		names, err := goFilesIn(d)
		if err != nil {
			return nil, err
		}
		path := filepath.ToSlash(rel)
		paths = append(paths, path)
		fixtures[path] = sourcePkg{path: path, dir: d, files: names}
		for _, name := range names {
			af, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			for _, spec := range af.Imports {
				ip := strings.Trim(spec.Path.Value, `"`)
				importsOf[path] = append(importsOf[path], ip)
				external[ip] = true
			}
		}
	}
	for path := range fixtures {
		delete(external, path) // fixture-local, not external
	}
	delete(external, "unsafe")

	exports, err := exportData(keys(external))
	if err != nil {
		return nil, err
	}

	// Order fixture packages dependencies-first.
	var order []sourcePkg
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		for _, ip := range importsOf[path] {
			if _, ok := fixtures[ip]; ok {
				visit(ip)
			}
		}
		order = append(order, fixtures[path])
	}
	for _, path := range paths {
		visit(path)
	}
	return check(order, exports)
}

func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out, nil
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// exportCache memoizes `go list -export` lookups across fixture loads in
// one process (analyzer tests load many fixtures; the import sets overlap
// almost completely).
var exportCache = struct {
	sync.Mutex
	files map[string]string
}{files: map[string]string{}}

// exportData resolves the given import paths (plus transitive
// dependencies) to compiler export-data files.
func exportData(paths []string) (map[string]string, error) {
	out := map[string]string{}
	var missing []string
	exportCache.Lock()
	for _, p := range paths {
		if f, ok := exportCache.files[p]; ok {
			out[p] = f
		} else {
			missing = append(missing, p)
		}
	}
	// Transitive deps of cached roots are cached too (one go list -deps
	// call resolves a root and everything below it), so copy the lot.
	for p, f := range exportCache.files {
		out[p] = f
	}
	exportCache.Unlock()
	if len(missing) == 0 {
		return out, nil
	}

	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, missing...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	listed, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list -export: %v\n%s", err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(listed))
	exportCache.Lock()
	defer exportCache.Unlock()
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: go list output: %w", err)
		}
		if p.Export != "" {
			exportCache.files[p.ImportPath] = p.Export
			out[p.ImportPath] = p.Export
		}
	}
	return out, nil
}
