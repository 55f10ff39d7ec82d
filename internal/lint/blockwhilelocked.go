package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strconv"
	"strings"
)

// BlockWhileLocked flags a potentially-blocking operation executed while a
// sync.Mutex or sync.RWMutex is held in the same function: a channel send or
// receive, a select without default, sync.WaitGroup.Wait, sync.Cond.Wait on a
// foreign condvar, or a call to a function or method named Wait, ReadAt,
// WriteAt or Sleep. A goroutine that parks inside a critical section stalls
// every contender of that lock, and when the party it waits for needs the
// same lock the two never wake. Such a hang fires only on the schedule that
// lines the two up, so a test run can pass over it; the lint audit's winning
// seed (EXPERIMENTS.md "Lint audit") is Engine.Wait joining the context
// watcher under a queue lock the watcher's Abort takes.
//
// Held-lock tracking is lexical: Lock adds the lock's class, Unlock removes
// it, `defer Unlock` keeps it held to the end of the function, and effects
// inside a branch do not outlive the branch. A function literal is walked as
// a function of its own with nothing held. Calls are not followed: a callee
// that blocks is recognized by its name alone.
//
// sync.Cond.Wait while holding only its own struct's locks is the canonical
// condvar loop (Wait releases the mutex while parked) and stays quiet. A
// deliberate blocking section is documented with `//lint:blockwhilelocked
// <why>` on the operation's line or the line above it.
const blockWhileLockedName = "blockwhilelocked"

var BlockWhileLocked = &Analyzer{
	Name: blockWhileLockedName,
	Doc:  "no blocking operation (send/recv/select/Wait/ReadAt) while a sync.Mutex/RWMutex is held",
	Run:  runBlockWhileLocked,
}

// blockingNames are the callees assumed to block: their bodies are not
// followed, so the name is the evidence.
var blockingNames = map[string]bool{"Wait": true, "ReadAt": true, "WriteAt": true, "Sleep": true}

// lockWalker threads the held-lock set through one package's function bodies.
type lockWalker struct {
	p         *Package
	annotated map[string]bool // "file:line" of each //lint:blockwhilelocked comment
	diags     []Diagnostic
}

func runBlockWhileLocked(p *Package) []Diagnostic {
	w := &lockWalker{p: p, annotated: make(map[string]bool)}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(strings.TrimSpace(c.Text), "//lint:"+blockWhileLockedName) {
					w.annotated[lineKey(p.Fset.Position(c.Pos()), 0)] = true
				}
			}
		}
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				w.list(fn.Body.List, nil)
			}
		}
	}
	return w.diags
}

func lineKey(pos token.Position, delta int) string {
	return pos.Filename + ":" + strconv.Itoa(pos.Line+delta)
}

// block reports the operation at pos unless nothing is held or a directive
// covers it.
func (w *lockWalker) block(what string, pos token.Pos, held []string) {
	pp := w.p.Fset.Position(pos)
	if len(held) == 0 || w.annotated[lineKey(pp, 0)] || w.annotated[lineKey(pp, -1)] {
		return
	}
	short := make([]string, len(held))
	for i, h := range held {
		if j := strings.LastIndex(h, "/"); j >= 0 {
			h = h[j+1:]
		}
		short[i] = h
	}
	w.diags = append(w.diags, Diagnostic{
		Pos:      pp,
		Analyzer: blockWhileLockedName,
		Message: what + " while holding " + strings.Join(short, ", ") +
			"; a parked owner stalls every contender — release the lock first, or annotate //lint:blockwhilelocked",
	})
}

func heldAdd(held []string, class string) []string {
	for _, h := range held {
		if h == class {
			return held
		}
	}
	return append(held[:len(held):len(held)], class)
}

func heldRemove(held []string, class string) []string {
	var out []string
	for _, h := range held {
		if h != class {
			out = append(out, h)
		}
	}
	return out
}

// list walks one statement list, threading the held set through it.
func (w *lockWalker) list(stmts []ast.Stmt, held []string) {
	for _, s := range stmts {
		held = w.stmt(s, held)
	}
}

// stmt processes one statement and returns the held set after it.
func (w *lockWalker) stmt(s ast.Stmt, held []string) []string {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if kind, meth, recv, ok := w.syncCall(call); ok && (kind == "Mutex" || kind == "RWMutex") {
				switch meth {
				case "Lock", "RLock":
					return heldAdd(held, classOf(w.p, recv))
				case "Unlock", "RUnlock":
					return heldRemove(held, classOf(w.p, recv))
				}
				return held
			}
		}
		w.expr(st.X, held)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.expr(e, held)
		}
		for _, e := range st.Lhs {
			w.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	case *ast.GoStmt:
		// The goroutine blocks on its own stack; only the arguments
		// evaluate here.
		w.expr(st.Call.Fun, nil)
		for _, arg := range st.Call.Args {
			w.expr(arg, held)
		}
	case *ast.DeferStmt:
		if kind, _, _, ok := w.syncCall(st.Call); ok && (kind == "Mutex" || kind == "RWMutex") {
			return held // a deferred unlock keeps the lock held to the end
		}
		w.expr(st.Call, held)
	case *ast.SendStmt:
		w.expr(st.Chan, held)
		w.expr(st.Value, held)
		w.block("channel send", st.Pos(), held)
	case *ast.IncDecStmt:
		w.expr(st.X, held)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r, held)
		}
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt, held)
	case *ast.BlockStmt:
		w.list(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		w.expr(st.Cond, held)
		w.list(st.Body.List, held)
		if st.Else != nil {
			w.stmt(st.Else, held)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		w.expr(st.Cond, held)
		w.list(st.Body.List, held)
		if st.Post != nil {
			w.stmt(st.Post, held)
		}
	case *ast.RangeStmt:
		w.expr(st.X, held)
		if t := w.p.Info.TypeOf(st.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.block("channel receive (range)", st.Pos(), held)
			}
		}
		w.list(st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		w.expr(st.Tag, held)
		w.clauses(st.Body, held)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		w.clauses(st.Body, held)
	case *ast.SelectStmt:
		w.selectStmt(st, held)
	}
	return held
}

func (w *lockWalker) clauses(body *ast.BlockStmt, held []string) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			w.list(cc.Body, held)
		}
	}
}

// selectStmt reports one blocking site for the whole select (none when a
// default clause makes it a poll) rather than one per comm.
func (w *lockWalker) selectStmt(st *ast.SelectStmt, held []string) {
	hasDefault := false
	for _, c := range st.Body.List {
		cc := c.(*ast.CommClause)
		if cc.Comm == nil {
			hasDefault = true
		} else if send, ok := cc.Comm.(*ast.SendStmt); ok {
			w.expr(send.Value, held)
		}
	}
	if !hasDefault {
		w.block("select without default", st.Pos(), held)
	}
	for _, c := range st.Body.List {
		w.list(c.(*ast.CommClause).Body, held)
	}
}

// expr scans an expression for receives and calls. A function literal is
// walked as its own function, with nothing held.
func (w *lockWalker) expr(e ast.Expr, held []string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.list(x.Body.List, nil)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.block("channel receive", x.Pos(), held)
			}
		case *ast.CallExpr:
			w.call(x, held)
		}
		return true
	})
}

// call classifies one call: the sync primitives' waits, then any callee
// whose name says it blocks.
func (w *lockWalker) call(call *ast.CallExpr, held []string) {
	if kind, meth, recv, ok := w.syncCall(call); ok {
		switch {
		case kind == "WaitGroup" && meth == "Wait":
			w.block("sync.WaitGroup.Wait", call.Pos(), held)
		case kind == "Cond" && meth == "Wait" && !heldOnlyBy(held, ownerPrefix(classOf(w.p, recv))):
			w.block("sync.Cond.Wait", call.Pos(), held)
		}
		return
	}
	name := ""
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if blockingNames[name] {
		w.block("call to "+types.ExprString(call.Fun), call.Pos(), held)
	}
}

// syncCall decodes a method call on a sync.Mutex, sync.RWMutex,
// sync.WaitGroup or sync.Cond value via the receiver expression's type
// (promoted methods of embedded sync fields are not matched).
func (w *lockWalker) syncCall(call *ast.CallExpr) (kind, method string, recv ast.Expr, ok bool) {
	fun, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	t := w.p.Info.TypeOf(fun.X)
	if t == nil {
		return "", "", nil, false
	}
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", nil, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex", "WaitGroup", "Cond":
		return named.Obj().Name(), fun.Sel.Name, fun.X, true
	}
	return "", "", nil, false
}

// ownerPrefix returns the "pkgpath.Type" prefix of a field class, which pairs
// a sync.Cond with the mutex of the same struct.
func ownerPrefix(class string) string {
	if i := strings.LastIndex(class, "."); i >= 0 {
		return class[:i]
	}
	return class
}

// heldOnlyBy reports whether every held lock class belongs to owner.
func heldOnlyBy(held []string, owner string) bool {
	for _, h := range held {
		if ownerPrefix(h) != owner {
			return false
		}
	}
	return true
}

// classOf names the lock expression e: "pkgpath.Type.field" for a struct
// field, "pkgpath.name" for a package variable, "pkgpath.name@file:line" (the
// declaration site) for a local, so a Lock and its Unlock agree on the class
// whatever expression reaches the lock.
func classOf(p *Package, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return classOf(p, x.X)
	case *ast.StarExpr:
		return classOf(p, x.X)
	case *ast.UnaryExpr:
		return classOf(p, x.X)
	case *ast.IndexExpr:
		return classOf(p, x.X)
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			t := sel.Recv()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
			}
		}
		if id, ok := x.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + x.Sel.Name
			}
		}
		return p.PkgPath + "." + types.ExprString(x)
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		dp := p.Fset.Position(obj.Pos())
		return obj.Pkg().Path() + "." + obj.Name() + "@" + path.Base(dp.Filename) + ":" + strconv.Itoa(dp.Line)
	}
	return ""
}
