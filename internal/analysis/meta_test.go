package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestRepoClean is the meta-suite: the full rumorvet analyzer set must run
// clean over the whole repository. Any finding here is either a real
// invariant violation to fix or a deliberate exception to waive with an
// explicit //rumor:allow — never to ignore.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis compiles every package; skipped in -short")
	}
	diags, err := Run(moduleRoot(t), Analyzers(), "./...")
	if err != nil {
		t.Fatalf("running rumorvet over ./...: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		t.Fatalf("rumorvet reported %d findings on the repository; fix them or add //rumor:allow waivers", len(diags))
	}
}

// TestNoDeadExports fails on any exported declaration under internal/ (a
// package-level func, type, var or const, or a method) that no non-test
// file of the module uses; benchmark/, cmd/ and examples/ count as
// callers. A method that satisfies an interface is exempt: it may be
// called only through the interface. //rumor:allow deadexport, with a
// one-line reason, waives a test instrument or a reference implementation.
func TestNoDeadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis compiles every package; skipped in -short")
	}
	pkgs, err := LoadPackages(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	// Each package is checked from source and its importers see it
	// through export data, so objects are matched by name, and interface
	// satisfaction by method names.
	used := make(map[string]bool)
	var ifaces [][]string
	addIface := func(it *types.Interface) {
		var names []string
		for i := range it.NumMethods() {
			names = append(names, it.Method(i).Name())
		}
		if len(names) > 0 {
			ifaces = append(ifaces, names)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[string]bool)
	var collect func(pkg *types.Package)
	collect = func(pkg *types.Package) {
		if seen[pkg.Path()] {
			return
		}
		seen[pkg.Path()] = true
		for _, name := range pkg.Scope().Names() {
			if it, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				addIface(it)
			}
		}
		for _, imp := range pkg.Imports() {
			collect(imp)
		}
	}
	for _, p := range pkgs {
		collect(p.Pkg)
		for _, obj := range p.Info.Uses {
			used[exportKey(obj)] = true
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		have := make(map[string]bool)
		mset := types.NewMethodSet(types.NewPointer(recv))
		for i := range mset.Len() {
			have[mset.At(i).Obj().Name()] = true
		}
		for _, names := range ifaces {
			if slices.Contains(names, fn.Name()) && !slices.ContainsFunc(names, func(n string) bool { return !have[n] }) {
				return true
			}
		}
		return false
	}
	var dead []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, "repro/internal/") {
			continue
		}
		pass := &Pass{Fset: p.Fset, Files: p.Files}
		// A waiver sits on or above the declaration, or above the
		// parenthesized group that holds it.
		check := func(id *ast.Ident, group *ast.GenDecl) {
			obj := p.Info.Defs[id]
			if obj == nil || !id.IsExported() || used[exportKey(obj)] {
				return
			}
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && satisfies(fn) {
				return
			}
			pos := p.Fset.Position(id.Pos())
			dirs := pass.directives()
			if dirs.allowed("deadexport", pos) || group != nil && group.Lparen.IsValid() && dirs.allowed("deadexport", p.Fset.Position(group.Pos())) {
				return
			}
			dead = append(dead, pos.String()+": "+id.Name)
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					check(d.Name, nil)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(s.Name, d)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								check(id, d)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but no non-test file uses it; delete it or waive it with //rumor:allow deadexport and a reason", d)
	}
}

// exportKey names a package-level object or a method the same way whether
// it was type-checked from source or read from export data: package path,
// receiver type for a method, and name. Other objects get no key.
func exportKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok {
				return ""
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + name
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + name
}
