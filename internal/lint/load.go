package lint

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
	"runtime"
	"sort"
	"strings"
	"sync"
)

// This file is the check's package loader. It is stdlib-only: the
// `go list -export` command resolves patterns, build constraints, and
// dependency export data (compiling what the build cache is missing), and
// go/parser + go/types rebuild full syntax trees and type information for
// the packages under analysis. Dependencies are imported from their compiled
// export data via go/importer's lookup hook, so loading cost scales with the
// analyzed packages, not the transitive source tree.

// Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") relative to dir into parsed,
// type-checked packages. Test files are not included (matching what `go
// build` compiles and what export data describes). A package that fails to
// parse or type-check aborts the load: the check assumes well-typed
// input, and the build gate runs before the lint gate in CI.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string)
	var roots []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && len(p.GoFiles) > 0 {
			pp := p
			roots = append(roots, &pp)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ImportPath < roots[j].ImportPath })

	// Parse and type-check the root packages in parallel. The token.FileSet
	// is concurrency-safe and shared (every Package reports positions in one
	// coordinate space), but a "gc" importer is not: each worker gets its own
	// importer reading the same export-data files, which means a dependency's
	// *types.Package is not pointer-identical across roots. The check
	// compares no objects across packages, so nothing relies on that
	// identity.
	fset := token.NewFileSet()
	results := make([]*Package, len(roots))
	errs := make([]error, len(roots))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, root := range roots {
		wg.Add(1)
		go func(i int, root *listedPkg) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = checkPackage(fset, exports, root)
		}(i, root)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err // roots are sorted: the first error is deterministic
		}
	}
	return results, nil
}

// checkPackage parses and type-checks one root package against the export
// data of its dependencies.
func checkPackage(fset *token.FileSet, exports map[string]string, root *listedPkg) (*Package, error) {
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	files := make([]*ast.File, 0, len(root.GoFiles))
	for _, name := range root.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(root.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, _ := conf.Check(root.ImportPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-check %s:\n  %s", root.ImportPath, strings.Join(typeErrs, "\n  "))
	}
	return &Package{
		PkgPath: root.ImportPath,
		Dir:     root.Dir,
		Fset:    fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}, nil
}
