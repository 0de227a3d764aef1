package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
	m := loadModuleUses(t)
	var dead []string
	for _, p := range m.internal() {
		check := func(id *ast.Ident, group *ast.GenDecl) {
			if !id.IsExported() {
				return
			}
			if d := m.dead(p, id, group); d != "" {
				dead = append(dead, d)
			}
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

// TestNoDeadFuncs fails on an unexported function or method under
// internal/ that no non-test file calls or otherwise refers to: a helper
// only tests reach is a second copy of behaviour the program does not
// have. The exemptions of TestNoDeadExports apply: a method that
// satisfies an interface, and //rumor:allow deadexport with a reason.
func TestNoDeadFuncs(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis compiles every package; skipped in -short")
	}
	m := loadModuleUses(t)
	var dead []string
	for _, p := range m.internal() {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.IsExported() || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				if d := m.dead(p, fd.Name, nil); d != "" {
					dead = append(dead, d)
				}
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is called by no non-test file; delete it or waive it with //rumor:allow deadexport and a reason", d)
	}
}

// settings names the configuration structs TestNoUnsetSettings covers, by
// package path and type name. An alias stands for the struct it names.
var settings = [][2]string{
	{"repro", "Options"},
	{"repro", "ShardConfig"},
	{"repro", "ClusterConfig"},
	{"repro", "ClusterNode"},
	{"repro/internal/rules", "Options"},
	{"repro/internal/shard", "Config"},
	{"repro/internal/cluster", "Config"},
	{"repro/internal/cluster", "WorkerConfig"},
}

// TestNoUnsetSettings fails on an exported field of a settings struct
// that no non-test file of the module writes, as a composite-literal key,
// an assignment or by taking its address: a setting nothing sets is a
// knob the program does not have. //rumor:allow unset, with a one-line
// reason, on or above the field waives one that a deployment or a test
// sets.
func TestNoUnsetSettings(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis compiles every package; skipped in -short")
	}
	m := loadModuleUses(t)
	written := make(map[string]bool)
	for _, p := range m.pkgs {
		selected := func(e ast.Expr) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			s := p.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return
			}
			t := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				t = structOf(t).Underlying().(*types.Struct).Field(i).Type()
			}
			written[fieldKey(structOf(t), sel.Sel.Name)] = true
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[fieldKey(structOf(p.Info.TypeOf(n)), id.Name)] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						selected(lhs)
					}
				case *ast.IncDecStmt:
					selected(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						selected(n.X)
					}
				}
				return true
			})
		}
	}
	byPath := make(map[string]*Package)
	for _, p := range m.pkgs {
		byPath[p.ImportPath] = p
	}
	checked := make(map[string]bool)
	for _, s := range settings {
		obj := byPath[s[0]].Pkg.Scope().Lookup(s[1])
		decl := structOf(obj.Type()).Obj() // the struct an alias names
		key := fieldKey(structOf(decl.Type()), "")
		if checked[key] {
			continue
		}
		checked[key] = true
		p := byPath[decl.Pkg().Path()]
		named := structOf(p.Pkg.Scope().Lookup(decl.Name()).Type()) // from source
		dirs := (&Pass{Fset: p.Fset, Files: p.Files}).directives()
		st := named.Underlying().(*types.Struct)
		for i := range st.NumFields() {
			fld := st.Field(i)
			pos := p.Fset.Position(fld.Pos())
			if fld.Exported() && !written[fieldKey(named, fld.Name())] && !dirs.allowed("unset", pos) {
				t.Errorf("%s: %s.%s is set by no non-test file; delete it or waive it with //rumor:allow unset and a reason", pos, decl.Name(), fld.Name())
			}
		}
	}
}

// structOf returns the named type t is or points to, aliases resolved,
// or nil.
func structOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldKey names a field of a named struct the same way whether the
// struct was type-checked from source or read from export data.
func fieldKey(named *types.Named, field string) string {
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field
}

// moduleUses is what the dead-code guards know of the module's non-test
// files: the packages, the key (exportKey) of every object they use, and
// the method names of every interface they declare or use.
type moduleUses struct {
	pkgs   []*Package
	used   map[string]bool
	ifaces [][]string
}

// loadModuleUses type-checks every package of the module. Each package is
// checked from source and its importers see it through export data, so
// objects are matched by name, and interface satisfaction by method
// names.
func loadModuleUses(t *testing.T) *moduleUses {
	t.Helper()
	pkgs, err := LoadPackages(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	m := &moduleUses{pkgs: pkgs, used: make(map[string]bool)}
	addIface := func(it *types.Interface) {
		var names []string
		for i := range it.NumMethods() {
			names = append(names, it.Method(i).Name())
		}
		if len(names) > 0 {
			m.ifaces = append(m.ifaces, names)
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
			m.used[exportKey(obj)] = true
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
	}
	return m
}

// internal returns the packages under internal/.
func (m *moduleUses) internal() []*Package {
	var out []*Package
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.ImportPath, "repro/internal/") {
			out = append(out, p)
		}
	}
	return out
}

// satisfies reports whether the method fn is one of an interface's
// methods that fn's receiver type has all of.
func (m *moduleUses) satisfies(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	have := make(map[string]bool)
	mset := types.NewMethodSet(types.NewPointer(recv))
	for i := range mset.Len() {
		have[mset.At(i).Obj().Name()] = true
	}
	for _, names := range m.ifaces {
		if slices.Contains(names, fn.Name()) && !slices.ContainsFunc(names, func(n string) bool { return !have[n] }) {
			return true
		}
	}
	return false
}

// dead returns "position: name" for the declaration id of p when no
// non-test file uses it, it is no interface method, and no waiver covers
// it, and "" otherwise. A waiver sits on or above the declaration, or
// above the parenthesized group that holds it.
func (m *moduleUses) dead(p *Package, id *ast.Ident, group *ast.GenDecl) string {
	obj := p.Info.Defs[id]
	if obj == nil || m.used[exportKey(obj)] {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && m.satisfies(fn) {
		return ""
	}
	pos := p.Fset.Position(id.Pos())
	dirs := (&Pass{Fset: p.Fset, Files: p.Files}).directives()
	if dirs.allowed("deadexport", pos) || group != nil && group.Lparen.IsValid() && dirs.allowed("deadexport", p.Fset.Position(group.Pos())) {
		return ""
	}
	return pos.String() + ": " + id.Name
}

// TestOneCodec fails when a non-test file outside the codec core
// (internal/wire/codec.go) uses (*wire.Reader).Fields. A message is
// declared once, and encoding and decoding both walk that declaration; a
// decoder written beside it as a loop over Fields is a second path the
// declaration does not keep in step.
func TestOneCodec(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo analysis compiles every package; skipped in -short")
	}
	pkgs, err := LoadPackages(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			core := p.ImportPath == "repro/internal/wire" && filepath.Base(p.Fset.Position(f.Pos()).Filename) == "codec.go"
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || core || p.Info.Uses[sel.Sel] == nil {
					return true
				}
				if exportKey(p.Info.Uses[sel.Sel]) == "repro/internal/wire.Reader.Fields" {
					t.Errorf("%s: (*wire.Reader).Fields outside the codec core; declare the message instead", p.Fset.Position(sel.Pos()))
				}
				return true
			})
		}
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

// TestCIRunPatterns fails when an alternative of a -run regexp, or a
// -fuzz target, of a go test command in .github/workflows/ci.yml matches
// no Test, Fuzz or Benchmark function declared in the packages the
// command names: after a rename, go test -run passes silently on zero
// tests. -run=NONE, the deliberate empty selection, is exempt. An
// alternative is matched up to its first '/', as go test matches the
// top-level name.
func TestCIRunPatterns(t *testing.T) {
	root := moduleRoot(t)
	raw, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(raw), "\n") {
		args := shellFields(line)
		at := slices.Index(args, "go")
		if at < 0 || at+1 >= len(args) || args[at+1] != "test" {
			continue
		}
		var patterns, pkgs []string
		for i := at + 2; i < len(args); i++ {
			a := args[i]
			switch {
			case (a == "-run" || a == "-fuzz") && i+1 < len(args):
				i++
				patterns = append(patterns, args[i])
			case strings.HasPrefix(a, "-run="), strings.HasPrefix(a, "-fuzz="):
				patterns = append(patterns, a[strings.Index(a, "=")+1:])
			case !strings.HasPrefix(a, "-"):
				pkgs = append(pkgs, a)
			}
		}
		names := testFuncNames(t, root, pkgs)
		for _, pat := range patterns {
			if pat == "NONE" {
				continue
			}
			for _, alt := range strings.Split(pat, "|") {
				re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
				if err != nil {
					t.Errorf("ci.yml:%d: %q: %v", n+1, alt, err)
					continue
				}
				checked++
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml:%d: %q matches no test, fuzz target or benchmark in %v", n+1, alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz pattern found in ci.yml")
	}
}

// shellFields splits a command line on spaces, keeping single-quoted
// words whole.
func shellFields(line string) []string {
	var fields []string
	var cur strings.Builder
	quoted, inWord := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if inWord {
				fields = append(fields, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		fields = append(fields, cur.String())
	}
	return fields
}

// testFuncNames lists the Test, Fuzz and Benchmark functions declared in
// the packages a go test command names (a directory, or a tree with
// /...), relative to root.
func testFuncNames(t *testing.T, root string, pkgs []string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	scan := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
					if strings.HasPrefix(fd.Name.Name, prefix) {
						names = append(names, fd.Name.Name)
					}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		dir, tree := strings.CutSuffix(pkg, "...")
		dir = filepath.Join(root, dir)
		if !tree {
			scan(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != dir && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			scan(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
