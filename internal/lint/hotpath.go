package lint

import (
	"cmp"
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// Hotpath checks the functions annotated with a `//lint:hotpath` doc-comment
// line: the engine's per-visit code (runner loops, the relaxation kernel,
// mailbox delivery, queue operations, SEM decode and read consumption), which
// runs millions of times per traversal. Inside an annotated function it flags
// the two costs an allocation test cannot count:
//
//   - map allocation: make(map...) or a map composite literal. A map that
//     never escapes lives on the stack and allocates nothing, yet building
//     one per push made Ctx.Push 43 % slower;
//   - time.Now: a vDSO call per visit is still a call per visit.
//
// It returns the findings of every package, sorted by file, line and column.
func Hotpath(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		diags = append(diags, runHotpath(p)...)
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column))
	})
	return diags
}

const hotpathName = "hotpath"

// HotpathDirective is the doc-comment line that opts a function into the
// hotpath discipline.
const HotpathDirective = "//lint:hotpath"

func isHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == HotpathDirective {
			return true
		}
	}
	return false
}

func isMap(p *Package, e ast.Expr) bool {
	t := p.Info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func runHotpath(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !isHotpath(fn) || fn.Body == nil {
				continue
			}
			flag := func(n ast.Node, msg string) {
				diags = append(diags, Diagnostic{
					Pos:     p.Fset.Position(n.Pos()),
					Message: msg + " in hotpath function " + fn.Name.Name,
				})
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					if sel, ok := node.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
						if id, ok := sel.X.(*ast.Ident); ok {
							if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "time" {
								flag(node, "call to time.Now")
							}
						}
					}
					if id, ok := node.Fun.(*ast.Ident); ok && id.Name == "make" && len(node.Args) > 0 && isMap(p, node.Args[0]) {
						flag(node, "map allocation (make)")
					}
				case *ast.CompositeLit:
					if isMap(p, node) {
						flag(node, "map allocation (composite literal)")
					}
				}
				return true
			})
		}
	}
	return diags
}
