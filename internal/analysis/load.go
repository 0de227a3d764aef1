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
	"strings"
)

// Standalone package loader: `rumorvet ./...` (and the analyzer tests)
// resolve packages with `go list -export -json -deps`, which compiles
// dependencies into the build cache and hands back per-package export-data
// files. Target packages are then parsed from source and type-checked
// against that export data through the standard gc importer — the same
// import mechanism `go vet`'s unitchecker protocol uses, with the go
// command's package graph replaced by one `go list` invocation.

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// Package is one loaded, type-checked target package.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// goList runs `go list -export -json -deps patterns...` in dir.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,Standard,DepOnly",
		"-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer that reads gc export data from
// the given importPath → export-file map.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// typeCheck parses and type-checks one package's files. goVersion may be
// empty (language defaults) or a "go1.N" string from the vet config.
func typeCheck(fset *token.FileSet, importPath, goVersion string, filenames []string, imp types.Importer) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	var typeErrs []error
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error:     func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %v", importPath, typeErrs[0])
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return files, pkg, info, nil
}

// LoadPackages loads the non-test source files of every package matching
// patterns (resolved relative to dir) and type-checks them against compiled
// export data. Standard-library packages and pure dependencies are loaded
// as export data only, never analyzed.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			filenames[i] = filepath.Join(p.Dir, f)
		}
		files, pkg, info, err := typeCheck(fset, p.ImportPath, "", filenames, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{
			ImportPath: p.ImportPath,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			Info:       info,
		})
	}
	return out, nil
}

// Run loads every package matching patterns and runs the given analyzers,
// returning all findings sorted by position.
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := LoadPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, p := range pkgs {
		ds, err := RunAnalyzers(analyzers, p.Fset, p.Files, p.Pkg, p.Info)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	return diags, nil
}
