package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolOwn enforces the pooled-value ownership contract of
// repro/internal/stream: Put transfers the tuple or block (and its
// buffers) back to its pool, so any later use of the same variable is a
// use-after-free against recycled memory; the Owned flag is an exclusive-
// ownership claim only the emitting constructor may make; and handing a
// pooled value to another goroutine through a channel breaks the
// single-threaded pool domain unless the function is a declared owner.
var PoolOwn = &Analyzer{
	Name: "poolown",
	Doc: "reports uses of a pooled stream.Tuple/stream.Block after Put, " +
		"Owned-flag writes outside //rumor:owner functions, and pooled values " +
		"sent across channels outside //rumor:owner functions",
	Run: runPoolOwn,
}

const streamPath = "repro/internal/stream"

// pooledKind names the pooled type a value belongs to, or "".
func pooledKind(t types.Type) string {
	if t == nil {
		return ""
	}
	if namedType(t, streamPath, "Tuple") {
		if _, ok := t.(*types.Pointer); ok {
			return "Tuple"
		}
	}
	if namedType(t, streamPath, "Block") {
		if _, ok := t.(*types.Pointer); ok {
			return "Block"
		}
	}
	return ""
}

func runPoolOwn(pass *Pass) error {
	inStream := pass.Pkg.Path() == streamPath
	for _, file := range pass.SrcFiles() {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			owner := pass.FuncHas(fn, "owner") || inStream
			w := &poolWalker{pass: pass, owner: owner}
			w.walkList(fn.Body.List, map[*types.Var]token.Pos{})
		}
	}
	return nil
}

// poolWalker tracks released pooled variables through one function body in
// source order. Kills are branch-local: a Put inside an if body does
// not poison the code after the if (conservative, no false positives on
// conditional-release-and-return shapes).
type poolWalker struct {
	pass  *Pass
	owner bool
}

func (w *poolWalker) walkList(stmts []ast.Stmt, killed map[*types.Var]token.Pos) {
	for _, s := range stmts {
		w.walkStmt(s, killed)
	}
}

func copyKilled(m map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	c := make(map[*types.Var]token.Pos, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (w *poolWalker) walkStmt(s ast.Stmt, killed map[*types.Var]token.Pos) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		w.walkList(st.List, killed)
	case *ast.IfStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, killed)
		}
		w.checkExpr(st.Cond, killed)
		w.walkStmt(st.Body, copyKilled(killed))
		if st.Else != nil {
			w.walkStmt(st.Else, copyKilled(killed))
		}
	case *ast.ForStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, killed)
		}
		if st.Cond != nil {
			w.checkExpr(st.Cond, killed)
		}
		inner := copyKilled(killed)
		w.walkStmt(st.Body, inner)
		if st.Post != nil {
			w.walkStmt(st.Post, inner)
		}
	case *ast.RangeStmt:
		w.checkExpr(st.X, killed)
		w.walkStmt(st.Body, copyKilled(killed))
	case *ast.SwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, killed)
		}
		if st.Tag != nil {
			w.checkExpr(st.Tag, killed)
		}
		for _, c := range st.Body.List {
			w.walkStmt(c, copyKilled(killed))
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			w.walkStmt(st.Init, killed)
		}
		for _, c := range st.Body.List {
			w.walkStmt(c, copyKilled(killed))
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			w.walkStmt(c, copyKilled(killed))
		}
	case *ast.CaseClause:
		for _, e := range st.List {
			w.checkExpr(e, killed)
		}
		w.walkList(st.Body, killed)
	case *ast.CommClause:
		if st.Comm != nil {
			w.walkStmt(st.Comm, killed)
		}
		w.walkList(st.Body, killed)
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt, killed)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.checkExpr(rhs, killed)
		}
		// A non-ident LHS (t.Vals[0] = ...) reads through the variable; a
		// plain ident LHS is a rebind, handled below.
		for _, lhs := range st.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				w.checkExpr(lhs, killed)
			}
		}
		w.recordKills(s, killed)
		// Reassignment revives the variable.
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if v := w.lhsVar(id); v != nil {
					delete(killed, v)
				}
			}
		}
		w.checkOwnedWrite(st)
	case *ast.SendStmt:
		w.checkExpr(st.Chan, killed)
		w.checkExpr(st.Value, killed)
		w.checkSend(st)
		w.recordKills(s, killed)
	case *ast.DeferStmt, *ast.GoStmt:
		// A deferred Put runs at function exit, and a go statement's
		// kills belong to the spawned goroutine: neither poisons the
		// remainder of this body.
		w.checkStmtUses(s, killed)
	default:
		w.checkStmtUses(s, killed)
		w.recordKills(s, killed)
	}
}

// lhsVar resolves an assignment LHS identifier to its variable (either a
// fresh definition or a reuse).
func (w *poolWalker) lhsVar(id *ast.Ident) *types.Var {
	if obj := w.pass.Info.Defs[id]; obj != nil {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	}
	if obj := w.pass.Info.Uses[id]; obj != nil {
		if v, ok := obj.(*types.Var); ok {
			return v
		}
	}
	return nil
}

// checkStmtUses flags identifiers of killed variables anywhere inside s.
func (w *poolWalker) checkStmtUses(s ast.Stmt, killed map[*types.Var]token.Pos) {
	w.checkNode(s, killed)
}

func (w *poolWalker) checkExpr(e ast.Expr, killed map[*types.Var]token.Pos) {
	w.checkNode(e, killed)
}

func (w *poolWalker) checkNode(n ast.Node, killed map[*types.Var]token.Pos) {
	if len(killed) == 0 {
		return
	}
	ast.Inspect(n, func(c ast.Node) bool {
		id, ok := c.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.pass.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		if relPos, dead := killed[v]; dead {
			rel := w.pass.Fset.Position(relPos)
			w.pass.Reportf(id.Pos(), "pooled %q used after it was released to its pool (released at line %d)", id.Name, rel.Line)
			// Report each variable once per kill.
			delete(killed, v)
		}
		return true
	})
}

// recordKills scans s for Put(x) calls on pooled values and marks the
// argument dead from this point on.
func (w *poolWalker) recordKills(s ast.Stmt, killed map[*types.Var]token.Pos) {
	ast.Inspect(s, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's kills stay its own
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// pool.Put(t) / bpool.Put(b) — the argument dies.
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok {
			if v, ok := w.pass.Info.Uses[id].(*types.Var); ok && pooledKind(v.Type()) != "" {
				killed[v] = call.Pos()
			}
		}
		return true
	})
}

// checkOwnedWrite flags `x.Owned = true` outside owner functions: the flag
// is an exclusive-ownership claim only the constructing emitter may make
// (stream.Tuple doc: "everyone else must leave the flag false").
func (w *poolWalker) checkOwnedWrite(st *ast.AssignStmt) {
	if w.owner {
		return
	}
	for i, lhs := range st.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Owned" {
			continue
		}
		t := w.pass.Info.Types[sel.X].Type
		if pooledKind(t) != "Tuple" {
			continue
		}
		if i < len(st.Rhs) {
			if id, ok := st.Rhs[i].(*ast.Ident); !ok || id.Name != "true" {
				continue
			}
		}
		w.pass.Reportf(sel.Pos(), "Tuple.Owned set outside a //rumor:owner function; only the constructing emitter owns a pooled tuple exclusively")
	}
}

// checkSend flags pooled values sent across channels outside owner
// functions: pools are single-goroutine domains, so a cross-goroutine
// handoff of pooled memory needs an explicit owner annotation.
func (w *poolWalker) checkSend(st *ast.SendStmt) {
	if w.owner {
		return
	}
	t := w.pass.Info.Types[st.Value].Type
	if kind := pooledKind(t); kind != "" {
		w.pass.Reportf(st.Arrow, "pooled *stream.%s sent across a channel outside a //rumor:owner function; pools are single-goroutine domains", kind)
	}
}
