package lint

import (
	"go/ast"
	"go/types"
)

// DroppedErr flags I/O calls whose error result is silently discarded. The
// semi-external layers (internal/sem, internal/ssd, internal/extsort) funnel
// every byte through ReadAt/WriteAt/Write/Close; a dropped error there turns
// device failure into silent graph corruption. Flagged shapes:
//
//	f.Close()            // expression statement, error vanishes
//	n, _ := f.ReadAt(p)  // tuple assignment, error position is blank
//
// Two shapes are deliberately accepted:
//
//	_ = f.Close()        // solitary blank assign: explicit, auditable intent
//	defer f.Close()      // defer cannot propagate the error; conventional
//	                     // for read-only resources
//
// The defer-Close acceptance has one carve-out: when the same function
// handles (does not discard) the error of a write-family call on the same
// receiver, the resource is a write path, and its Close error completes the
// write — buffered data is flushed and the final device error surfaces
// there. A `defer f.Close()` in that function silently discards exactly the
// failure the handled writes were guarding against, so it is flagged; close
// explicitly and check the error.
//
// The method-name set is the positional/streams family the storage layers
// use: Read, ReadAt, Write, WriteAt, Close, Flush, Sync, plus the encoder
// family the server and load-report paths use: Encode, WriteString.
const droppedErrName = "droppederr"

var DroppedErr = &Analyzer{
	Name: droppedErrName,
	Doc:  "ignored error results from Read/ReadAt/Write/WriteAt/Close/Flush/Sync/Encode/WriteString",
	Run:  runDroppedErr,
}

var droppedErrMethods = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"Close": true, "Flush": true, "Sync": true,
	"Encode": true, "WriteString": true,
}

// droppedErrWriteMethods is the write-family subset: a handled error from
// one of these marks the receiver as a checked write path for the
// defer-Close rule.
var droppedErrWriteMethods = map[string]bool{
	"Write": true, "WriteAt": true, "WriteString": true,
	"Flush": true, "Sync": true, "Encode": true,
}

// errReturningIOCall reports whether call is a method call (not a package-
// qualified function) in the watched name set whose final result is error.
func errReturningIOCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !droppedErrMethods[sel.Sel.Name] {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return "", false // pkg.Func(...), e.g. fmt.Fprintln — not an I/O method
		}
	}
	// In-memory accumulators whose write methods are documented to never
	// return a non-nil error: flagging them teaches people to ignore the
	// analyzer.
	if t := info.TypeOf(sel.X); t != nil {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
			case "strings.Builder", "bytes.Buffer":
				return "", false
			}
		}
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return "", false
	}
	return types.ExprString(sel.X) + "." + sel.Sel.Name, true
}

func runDroppedErr(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					if name, ok := errReturningIOCall(p.Info, call); ok {
						diags = append(diags, Diagnostic{
							Pos:      p.Fset.Position(stmt.Pos()),
							Analyzer: droppedErrName,
							Message:  name + " error is dropped; handle it or assign it to _ explicitly",
						})
					}
				}
			case *ast.AssignStmt:
				// n, _ := f.ReadAt(...): some results used, error blanked.
				if len(stmt.Rhs) != 1 || len(stmt.Lhs) < 2 {
					return true
				}
				call, ok := stmt.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				allBlank := true
				for _, lhs := range stmt.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						allBlank = false
						break
					}
				}
				if allBlank {
					return true // fully explicit discard
				}
				if last, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident); ok && last.Name == "_" {
					if name, ok := errReturningIOCall(p.Info, call); ok {
						diags = append(diags, Diagnostic{
							Pos:      p.Fset.Position(stmt.Pos()),
							Analyzer: droppedErrName,
							Message:  name + " error is blanked while other results are used; handle it",
						})
					}
				}
			}
			return true
		})
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				diags = append(diags, checkDeferClosedWriter(p, body)...)
			}
			return true
		})
	}
	return diags
}

// checkDeferClosedWriter flags `defer x.Close()` in a function that handles
// the error of a write-family call on the same receiver. Nested function
// literals are separate scopes (their defers fire at their own return).
func checkDeferClosedWriter(p *Package, body *ast.BlockStmt) []Diagnostic {
	// Pass 1: mark write-family calls whose error is deliberately discarded
	// (expression statement, or assignment with the error position blank).
	discarded := make(map[*ast.CallExpr]bool)
	walkShallow(body, func(n ast.Node) {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				discarded[call] = true
			}
		case *ast.AssignStmt:
			if len(stmt.Rhs) != 1 {
				return
			}
			call, ok := stmt.Rhs[0].(*ast.CallExpr)
			if !ok || len(stmt.Lhs) == 0 {
				return
			}
			if last, ok := stmt.Lhs[len(stmt.Lhs)-1].(*ast.Ident); ok && last.Name == "_" {
				discarded[call] = true
			}
		case *ast.DeferStmt:
			discarded[stmt.Call] = true
		case *ast.GoStmt:
			discarded[stmt.Call] = true
		}
	})
	// Pass 2: receivers with at least one handled write.
	handled := make(map[string]bool)
	walkShallow(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || discarded[call] {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !droppedErrWriteMethods[sel.Sel.Name] {
			return
		}
		if _, ok := errReturningIOCall(p.Info, call); ok {
			handled[types.ExprString(sel.X)] = true
		}
	})
	if len(handled) == 0 {
		return nil
	}
	// Pass 3: flag deferred Closes on those receivers.
	var diags []Diagnostic
	walkShallow(body, func(n ast.Node) {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return
		}
		sel, ok := d.Call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" || !handled[types.ExprString(sel.X)] {
			return
		}
		if name, ok := errReturningIOCall(p.Info, d.Call); ok {
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(d.Pos()),
				Analyzer: droppedErrName,
				Message:  name + " error is discarded by defer on a write path; the close completes the handled writes — close explicitly and check the error",
			})
		}
	})
	return diags
}

// walkShallow walks the subtree rooted at n, invoking fn on every node but
// not descending into nested function literals.
func walkShallow(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, ok := node.(*ast.FuncLit); ok && node != n {
			return false
		}
		if node != nil {
			fn(node)
		}
		return true
	})
}
