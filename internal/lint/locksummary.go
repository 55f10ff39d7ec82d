package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// bodyWalker attaches per-function concurrency facts to one funcNode: lock
// acquisitions with the lexically-held set at each site, blocking operations,
// call edges and dynamic dispatch sites.
//
// Held-lock tracking is lexical: a Lock() statement adds its class, an
// Unlock() removes it, `defer Unlock()` keeps it held to the end of the
// function, and effects inside branches are not propagated past the branch
// (an unlock under `if` does not clear the straight-line held set). This is
// a may-hold approximation — precise enough for the repo's short critical
// sections, cheap enough to run on every CI push.

type bodyWalker struct {
	prog *program
	p    *Package
	node *funcNode
	lits map[*ast.FuncLit]string
	litN int
}

// externalBlocking names methods assumed to block when the callee is outside
// the program (time.Sleep, os.File.ReadAt) or reached through an interface
// (graph.Store.ReadAt on the I/O pool path).
var externalBlocking = map[string]bool{
	"Wait":    true,
	"ReadAt":  true,
	"WriteAt": true,
	"Sleep":   true,
}

func heldAdd(held []string, class string) []string {
	for _, h := range held {
		if h == class {
			return held
		}
	}
	out := make([]string, len(held)+1)
	copy(out, held)
	out[len(held)] = class
	return out
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
func (w *bodyWalker) list(stmts []ast.Stmt, held []string) {
	for _, s := range stmts {
		held = w.stmt(s, held)
	}
}

// stmt processes one statement and returns the held set after it.
func (w *bodyWalker) stmt(s ast.Stmt, held []string) []string {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if kind, meth, recv, ok := w.syncCall(call); ok && (kind == "Mutex" || kind == "RWMutex") {
				class := classOf(w.p, recv)
				switch meth {
				case "Lock", "RLock", "TryLock", "TryRLock":
					w.acquire(class, meth, call.Pos(), held)
					return heldAdd(held, class)
				case "Unlock", "RUnlock":
					return heldRemove(held, class)
				}
				return held
			}
		}
		w.expr(st.X, held)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			w.expr(rhs, held)
		}
		for _, lhs := range st.Lhs {
			w.expr(lhs, held)
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
		w.goStmt(st, held)
	case *ast.DeferStmt:
		w.deferCall(st.Call, held)
	case *ast.SendStmt:
		w.expr(st.Chan, held)
		w.expr(st.Value, held)
		w.node.blocks = append(w.node.blocks, blockSite{what: "channel send", pos: st.Pos(), held: held})
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
		if st.Cond != nil {
			w.expr(st.Cond, held)
		}
		w.list(st.Body.List, held)
		if st.Post != nil {
			w.stmt(st.Post, held)
		}
	case *ast.RangeStmt:
		w.expr(st.X, held)
		if t := w.p.Info.TypeOf(st.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.node.blocks = append(w.node.blocks, blockSite{what: "channel receive (range)", pos: st.Pos(), held: held})
			}
		}
		w.list(st.Body.List, held)
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		if st.Tag != nil {
			w.expr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.list(cc.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			held = w.stmt(st.Init, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.list(cc.Body, held)
			}
		}
	case *ast.SelectStmt:
		w.selectStmt(st, held)
	}
	return held
}

func (w *bodyWalker) acquire(class, method string, pos token.Pos, held []string) {
	w.node.acquires = append(w.node.acquires, acqSite{
		class:     class,
		method:    method,
		pos:       pos,
		held:      held,
		annotated: w.prog.suppressed("lockorder", pos),
	})
}

// selectStmt records one blocking site for the whole select (none when a
// default clause makes it a poll) without counting each comm as its own
// blocking operation.
func (w *bodyWalker) selectStmt(st *ast.SelectStmt, held []string) {
	hasDefault := false
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			hasDefault = true
			continue
		}
		if send, ok := cc.Comm.(*ast.SendStmt); ok {
			w.expr(send.Value, held)
		}
	}
	if !hasDefault {
		w.node.blocks = append(w.node.blocks, blockSite{what: "select without default", pos: st.Pos(), held: held})
	}
	for _, c := range st.Body.List {
		if cc, ok := c.(*ast.CommClause); ok {
			w.list(cc.Body, held)
		}
	}
}

// expr scans an expression for calls, receives, and function literals.
// Nested literals become their own nodes and are not walked as part of this
// function.
func (w *bodyWalker) expr(e ast.Expr, held []string) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.litNode(x)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.node.blocks = append(w.node.blocks, blockSite{what: "channel receive", pos: x.Pos(), held: held})
			}
		case *ast.CallExpr:
			w.call(x, held)
		}
		return true
	})
}

// call classifies one call expression: sync primitive operations, static
// call edges, dynamic dispatch sites, and function literals passed as
// arguments (conservatively assumed to be invoked by the callee, which covers
// sync.Once.Do and sort.Slice).
func (w *bodyWalker) call(call *ast.CallExpr, held []string) {
	if tv, ok := w.p.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltinFn := w.p.Info.Uses[id].(*types.Builtin); isBuiltinFn {
			return
		}
	}
	if kind, meth, recv, ok := w.syncCall(call); ok {
		class := classOf(w.p, recv)
		switch kind {
		case "Mutex", "RWMutex":
			switch meth {
			case "Lock", "RLock", "TryLock", "TryRLock":
				// Acquisition in expression position (if mu.TryLock() { ... }):
				// record the edge; the lexical held set is not extended.
				w.acquire(class, meth, call.Pos(), held)
			}
			return
		case "WaitGroup":
			if meth == "Wait" {
				w.node.blocks = append(w.node.blocks, blockSite{what: "sync.WaitGroup.Wait", pos: call.Pos(), held: held})
			}
			return
		case "Cond":
			if meth == "Wait" {
				w.node.blocks = append(w.node.blocks, blockSite{
					what:      "sync.Cond.Wait",
					pos:       call.Pos(),
					held:      held,
					condOwner: ownerPrefix(class),
				})
			}
			return
		}
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.node.calls = append(w.node.calls, callEdge{callee: w.litNode(lit), pos: call.Pos(), held: held})
	} else if key, dyn := w.resolveCallee(call); key != "" {
		w.node.calls = append(w.node.calls, callEdge{callee: key, pos: call.Pos(), held: held})
	} else if dyn != nil {
		dyn.pos = call.Pos()
		dyn.held = held
		w.node.dyncalls = append(w.node.dyncalls, *dyn)
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.FuncLit); ok {
			w.node.calls = append(w.node.calls, callEdge{callee: w.litNode(lit), pos: call.Pos(), held: held})
		}
	}
}

// resolveCallee classifies a call target: a function key for direct calls to
// declared functions and concrete methods (in-program or not), a dynCall for
// interface dispatch, or neither for calls through func values.
func (w *bodyWalker) resolveCallee(call *ast.CallExpr) (string, *dynCall) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := w.p.Info.Uses[fun].(*types.Func); ok {
			return funcKey(fn), nil
		}
	case *ast.SelectorExpr:
		if sel, ok := w.p.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return "", nil // func-typed field: unresolved
			}
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return "", nil
			}
			recvT := sel.Recv()
			if ptr, isPtr := recvT.Underlying().(*types.Pointer); isPtr {
				recvT = ptr.Elem()
			}
			if _, isIface := recvT.Underlying().(*types.Interface); isIface {
				sig, _ := fn.Type().(*types.Signature)
				if sig == nil {
					return "", nil
				}
				return "", &dynCall{name: fn.Name(), sig: sigKey(fn.Name(), sig)}
			}
			return funcKey(fn), nil
		}
		if fn, ok := w.p.Info.Uses[fun.Sel].(*types.Func); ok {
			return funcKey(fn), nil // package-qualified function
		}
	}
	return "", nil
}

// goStmt walks a `go` statement. A spawned literal becomes its own node,
// never a call edge: the goroutine's locking and blocking happen on its own
// stack. The arguments evaluate here, under the spawner's held set.
func (w *bodyWalker) goStmt(st *ast.GoStmt, held []string) {
	if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
		w.litNode(lit)
	}
	for _, arg := range st.Call.Args {
		w.expr(arg, held)
	}
}

// deferCall handles `defer f(...)`: deferred unlocks keep the lock held to
// function end (lockedsection.go owns leak checking), everything else is a
// call that runs with the statement's held set.
func (w *bodyWalker) deferCall(call *ast.CallExpr, held []string) {
	if kind, _, _, ok := w.syncCall(call); ok && (kind == "Mutex" || kind == "RWMutex") {
		return
	}
	for _, arg := range call.Args {
		w.expr(arg, held) // deferred call arguments evaluate at the defer statement
	}
	w.call(call, held)
}

// syncCall decodes a method call on a sync.Mutex, sync.RWMutex,
// sync.WaitGroup, or sync.Cond value via the receiver expression's type (the
// same resolution mutexCallExpr uses; promoted methods of embedded sync
// fields are not matched).
func (w *bodyWalker) syncCall(call *ast.CallExpr) (kind, method string, recv ast.Expr, ok bool) {
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

// litNode materializes a funcNode for a function literal (idempotently) and
// walks its body as a separate function with an empty held set.
func (w *bodyWalker) litNode(lit *ast.FuncLit) string {
	if key, ok := w.lits[lit]; ok {
		return key
	}
	w.litN++
	key := w.node.key + "$" + strconv.Itoa(w.litN)
	w.lits[lit] = key
	child := &funcNode{
		key:     key,
		display: w.node.display + " func literal",
		pkg:     w.p,
		pos:     lit.Pos(),
	}
	w.prog.nodes[key] = child
	cw := &bodyWalker{prog: w.prog, p: w.p, node: child, lits: w.lits}
	cw.list(lit.Body.List, nil)
	return key
}
