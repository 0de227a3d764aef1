// Package analysis is rumorvet's static-analysis framework: a small,
// dependency-free re-implementation of the go/analysis Analyzer/Pass model
// (golang.org/x/tools is deliberately not imported — the suite builds with
// the standard library alone) plus the suite of RUMOR-specific analyzers
// that encode this repository's runtime invariants:
//
//   - poolown     — pooled stream.Tuple/stream.Block lifecycle: no use after
//     Put, Owned-flag writes only in annotated owner functions, no
//     pooled value sent across a channel outside an owner function.
//   - noalloc     — functions annotated //rumor:noalloc contain no
//     allocating constructs (composite literals, make/new, append, closure
//     captures, string concatenation, interface boxing), with cap/len-
//     guarded amortized growth paths allowed.
//   - atomicfield — a struct field whose address is passed to sync/atomic
//     anywhere must be accessed through sync/atomic everywhere.
//   - lockedcall  — functions suffixed ...Locked may only be called while
//     the corresponding mutex is held on the calling path.
//   - wirecase    — every constant of a //rumor:wiretags const group
//     appears both on the encode side (a plain use) and the decode side (a
//     switch case) of its package's codec.
//   - errclose    — error results of Close/Write/Flush/Sync/WriteFrame
//     calls are never silently dropped; teardown paths must write `_ =`.
//
// The analyzers run three ways: through `go vet -vettool=rumorvet` (the
// unitchecker protocol, see unit.go), through the standalone loader
// (`rumorvet ./...`, see load.go), and under analysistest-style unit tests
// with // want "regexp" comments (see testutil_test.go).
//
// Directives recognized in source comments:
//
//	//rumor:noalloc            on a function: enforce allocation-freedom
//	//rumor:owner              on a function: may set Tuple.Owned and hand
//	                           pooled values across goroutine boundaries
//	//rumor:holdslock          on a function: callers guarantee the lock is
//	                           held for the function's whole body
//	//rumor:wiretags           on a const group: wire-tag exhaustiveness
//	//rumor:notag              on one const spec: exempt from wiretags
//	//rumor:allow <analyzers>  on or above a line: waive named analyzers
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single type-checked
// package through its Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, position-resolved.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

// Pass carries one package's syntax and type information through an
// analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)

	dirs *directives // lazily built, shared across analyzers via Unit/loader
}

// Reportf records a finding at pos unless a //rumor:allow waiver names this
// analyzer on the same or the preceding line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives().allowed(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SrcFiles returns the pass's non-test files: the suite's invariants target
// production code, and tests deliberately abuse pooled lifecycles (double
// releases, lock-free harnesses) to probe the runtime.
func (p *Pass) SrcFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// FuncHas reports whether fn's doc comment carries the named directive.
func (p *Pass) FuncHas(fn *ast.FuncDecl, name string) bool {
	return hasDirective(fn.Doc, name)
}

// Analyzers returns the full suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{PoolOwn, NoAlloc, AtomicField, LockedCall, WireCase, ErrClose}
}

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

// directives indexes the //rumor: comment directives of one package.
type directives struct {
	// allow maps file → line → analyzer names waived on that line.
	allow map[string]map[int][]string
}

func (p *Pass) directives() *directives {
	if p.dirs != nil {
		return p.dirs
	}
	d := &directives{allow: make(map[string]map[int][]string)}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "rumor:allow") {
					continue
				}
				names := strings.Fields(strings.TrimPrefix(text, "rumor:allow"))
				pos := p.Fset.Position(c.Pos())
				byLine := d.allow[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					d.allow[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], names...)
			}
		}
	}
	p.dirs = d
	return d
}

// allowed reports whether analyzer is waived at position (same line or the
// line immediately above).
func (d *directives) allowed(analyzer string, pos token.Position) bool {
	byLine := d.allow[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range byLine[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// hasDirective reports whether the comment group contains a line of the
// form //rumor:<name> (optionally followed by prose).
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if !strings.HasPrefix(text, "rumor:") {
			continue
		}
		rest := strings.TrimPrefix(text, "rumor:")
		fields := strings.Fields(rest)
		if len(fields) > 0 && fields[0] == name {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Shared AST / type helpers
// ---------------------------------------------------------------------------

// inspectStack walks root like ast.Inspect but hands the visitor the stack
// of ancestor nodes (outermost first, not including n itself).
func inspectStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// namedType reports whether t (after unwrapping one pointer) is the named
// type path.name, and returns the dereferenced named type.
func namedType(t types.Type, path, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// newInfo returns a types.Info with every map the analyzers need.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunAnalyzers runs the given analyzers over one type-checked package and
// returns the findings sorted by position.
func RunAnalyzers(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	shared := &Pass{} // directive index shared across analyzers
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			report:   func(d Diagnostic) { diags = append(diags, d) },
			dirs:     shared.dirs,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		shared.dirs = pass.dirs
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}
