package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strconv"
	"strings"
)

// This file is the whole-program layer under the interprocedural analyzers
// (lockorder, blockwhilelocked): a CHA-style static call graph over go/types,
// one node per declared function or function literal, with per-function
// concurrency facts (lock acquisitions, blocking operations) attached by the
// walker in locksummary.go and transitive summaries computed by fixpoint here.
//
// Identity is string-keyed, not pointer-keyed: the parallel loader gives each
// package its own importer, so a dependency's *types.Func objects are not
// shared across packages. funcKey and lock classes canonicalize to
// "pkgpath.Type.name" strings, which unify across type-checker universes.
//
// Resolution policy (the precision/coverage trade each analyzer leans on):
//
//   - direct calls to declared functions and concrete methods: static edges;
//   - interface method calls: recorded as dynamic sites and resolved by CHA
//     (method name + receiver-stripped signature string) — used only where
//     missing an edge hides a bug (lockorder's may-acquire sets);
//   - calls through func-typed variables and fields: unresolved (no edge);
//     a function literal passed as a call argument is conservatively assumed
//     to be invoked by the callee (covers sync.Once.Do, sort.Slice);
//   - `go` statements: never call edges — a goroutine's blocking and locking
//     happen on another stack.

// program is the whole-program view RunAll hands to Analyzer.RunProgram.
type program struct {
	pkgs  []*Package
	fset  *token.FileSet
	nodes map[string]*funcNode
	order []*funcNode // nodes sorted by key, the deterministic iteration order

	// cha maps "methodName|signature" to the keys of every concrete method
	// with that shape, the class-hierarchy approximation for dynamic calls.
	cha map[string][]string

	// directives holds //lint:<name> suppression comments as "file:line:name".
	directives map[string]bool
}

// acqSite is one mutex Lock/RLock call.
type acqSite struct {
	class     string
	method    string
	pos       token.Pos
	held      []string // lock classes lexically held when this acquisition runs
	annotated bool     // //lint:lockorder at the site
}

// blockSite is one potentially-blocking operation.
type blockSite struct {
	what      string // "channel receive", "select without default", ...
	pos       token.Pos
	held      []string
	condOwner string // for sync.Cond.Wait: owner prefix of the cond's class
}

// callEdge is one resolved call site (static target).
type callEdge struct {
	callee string
	pos    token.Pos
	held   []string
}

// dynCall is an interface-dispatched call site, resolved later by CHA.
type dynCall struct {
	name string
	sig  string
	pos  token.Pos
	held []string
}

// blockReason explains why a function may block, for interprocedural
// diagnostics ("call to F may block (channel receive at file.go:12)").
type blockReason struct {
	what string
	pos  token.Pos
	via  string // callee display name when the reason is inherited, else ""
}

// funcNode is one function (declared or literal) in the call graph.
type funcNode struct {
	key     string
	display string
	pkg     *Package
	pos     token.Pos

	acquires []acqSite
	blocks   []blockSite
	calls    []callEdge
	dyncalls []dynCall

	// Transitive summaries (computed by computeSummaries).
	mayAcquire map[string]token.Pos
	mayBlock   *blockReason
}

// shortName compresses "repro/internal/core.workQueue.mu" to
// "core.workQueue.mu" for diagnostics.
func shortName(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// ownerPrefix returns the "pkgpath.Type" prefix of a field class, used to
// pair a sync.Cond with the mutex of the same struct.
func ownerPrefix(class string) string {
	if i := strings.LastIndex(class, "."); i >= 0 {
		return class[:i]
	}
	return class
}

// funcKey canonicalizes a function object to its cross-package identity.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	pkgPath := "_"
	if fn.Pkg() != nil {
		pkgPath = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkgPath + "." + n.Obj().Name() + "." + fn.Name()
		}
		return pkgPath + "." + types.TypeString(t, nil) + "." + fn.Name()
	}
	return pkgPath + "." + fn.Name()
}

// sigKey is the CHA matching key: method name plus the receiver-stripped
// signature rendered with full package paths.
func sigKey(name string, sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	return name + "|" + types.TypeString(types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic()), qual)
}

// buildProgram constructs the call graph and summaries for one package set.
func buildProgram(pkgs []*Package) *program {
	prog := &program{
		pkgs:       pkgs,
		nodes:      make(map[string]*funcNode),
		cha:        make(map[string][]string),
		directives: make(map[string]bool),
	}
	if len(pkgs) > 0 {
		prog.fset = pkgs[0].Fset
	}
	for _, p := range pkgs {
		prog.collectDirectives(p)
	}
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[fn.Name].(*types.Func)
				if obj == nil {
					continue
				}
				key := funcKey(obj)
				node := &funcNode{
					key:     key,
					display: shortName(key),
					pkg:     p,
					pos:     fn.Pos(),
				}
				prog.nodes[key] = node
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					prog.cha[sigKey(obj.Name(), sig)] = append(prog.cha[sigKey(obj.Name(), sig)], key)
				}
				w := &bodyWalker{prog: prog, p: p, node: node, lits: make(map[*ast.FuncLit]string)}
				w.list(fn.Body.List, nil)
			}
		}
	}
	prog.order = make([]*funcNode, 0, len(prog.nodes))
	for _, n := range prog.nodes {
		prog.order = append(prog.order, n)
	}
	sort.Slice(prog.order, func(i, j int) bool { return prog.order[i].key < prog.order[j].key })
	for _, keys := range prog.cha {
		sort.Strings(keys)
	}
	// Calls that leave the program (or go through an interface) to a method
	// whose name promises blocking — Wait, ReadAt, WriteAt, Sleep — become
	// blocking sites of the caller: their bodies are invisible, so the name
	// is the only evidence available.
	for _, n := range prog.nodes {
		for _, c := range n.calls {
			if prog.nodes[c.callee] != nil {
				continue
			}
			name := c.callee[strings.LastIndex(c.callee, ".")+1:]
			if externalBlocking[name] {
				n.blocks = append(n.blocks, blockSite{what: "call to " + shortName(c.callee), pos: c.pos, held: c.held})
			}
		}
		for _, d := range n.dyncalls {
			if externalBlocking[d.name] {
				n.blocks = append(n.blocks, blockSite{what: "interface call to " + d.name, pos: d.pos, held: d.held})
			}
		}
	}
	prog.computeSummaries()
	return prog
}

// collectDirectives records every //lint:<name> comment position so analyzers
// can honor site suppressions (same line as the flagged statement, or the
// line directly above it).
func (prog *program) collectDirectives(p *Package) {
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, "//lint:") {
					continue
				}
				name := strings.TrimPrefix(text, "//lint:")
				if i := strings.IndexAny(name, " \t"); i >= 0 {
					name = name[:i]
				}
				pos := p.Fset.Position(c.Pos())
				prog.directives[pos.Filename+":"+strconv.Itoa(pos.Line)+":"+name] = true
			}
		}
	}
}

// suppressed reports whether a //lint:<name> directive covers pos: on the
// same source line (trailing comment) or the line above (own-line comment).
func (prog *program) suppressed(name string, pos token.Pos) bool {
	if prog.fset == nil {
		return false
	}
	pp := prog.fset.Position(pos)
	return prog.directives[pp.Filename+":"+strconv.Itoa(pp.Line)+":"+name] ||
		prog.directives[pp.Filename+":"+strconv.Itoa(pp.Line-1)+":"+name]
}

// classOf canonicalizes the lock expression e to a cross-package
// identity: "pkgpath.Type.field" for struct fields, "pkgpath.name" for
// package variables, "pkgpath.name@file:line" (the declaration site) for
// locals, so the same local referenced from a closure resolves identically.
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
		// Local variable: key by declaration site so every closure that
		// captures it agrees on the class.
		dp := p.Fset.Position(obj.Pos())
		return obj.Pkg().Path() + "." + obj.Name() + "@" + path.Base(dp.Filename) + ":" + strconv.Itoa(dp.Line)
	}
	return ""
}

// computeSummaries runs the interprocedural fixpoints: may-acquire lock sets
// (through static and CHA-resolved dynamic calls) and may-block reasons
// (static calls only — CHA would drown blockwhilelocked in false positives).
func (prog *program) computeSummaries() {
	for _, n := range prog.order {
		n.mayAcquire = make(map[string]token.Pos)
		for _, a := range n.acquires {
			addWitness(n.mayAcquire, a.class, a.pos)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range prog.order {
			for _, c := range n.calls {
				callee := prog.nodes[c.callee]
				if callee == nil {
					continue
				}
				for class, pos := range callee.mayAcquire {
					if addWitness(n.mayAcquire, class, pos) {
						changed = true
					}
				}
				if n.mayBlock == nil && callee.mayBlock != nil {
					n.mayBlock = &blockReason{what: callee.mayBlock.what, pos: callee.mayBlock.pos, via: callee.display}
					changed = true
				}
			}
			for _, d := range n.dyncalls {
				for _, key := range prog.cha[d.sig] {
					callee := prog.nodes[key]
					if callee == nil {
						continue
					}
					for class, pos := range callee.mayAcquire {
						if addWitness(n.mayAcquire, class, pos) {
							changed = true
						}
					}
				}
			}
			if n.mayBlock == nil && len(n.blocks) > 0 {
				b := n.blocks[0]
				for _, cand := range n.blocks {
					if cand.pos < b.pos {
						b = cand
					}
				}
				n.mayBlock = &blockReason{what: b.what, pos: b.pos}
				changed = true
			}
		}
	}
}

// addWitness records class with the smallest (deterministic) witness pos.
func addWitness(m map[string]token.Pos, class string, pos token.Pos) bool {
	if prev, ok := m[class]; ok {
		if pos < prev {
			m[class] = pos
		}
		return false
	}
	m[class] = pos
	return true
}

// posLabel renders a position as "file.go:line" for inclusion in messages
// (base name only, so diagnostics are stable across checkouts).
func (prog *program) posLabel(pos token.Pos) string {
	pp := prog.fset.Position(pos)
	return path.Base(pp.Filename) + ":" + strconv.Itoa(pp.Line)
}
