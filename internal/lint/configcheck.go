package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ConfigCheck enforces that every exported field of an exported config
// struct (a struct type named "Config" or "...Config") is referenced by the
// package's validate/normalize function. The engine's knobs default and
// clamp in normalize; a field that normalize never sees is a knob that can
// be set to garbage and silently misbehave at traversal time. Validator
// names recognized: validate, Validate, normalize,
// Normalize — as a method on the struct (pointer or value receiver) or a
// function taking it as first parameter.
//
// Fields of type context.Context are exempt: they carry per-call lifecycle,
// not tunable configuration.
const configCheckName = "configcheck"

var ConfigCheck = &Analyzer{
	Name: configCheckName,
	Doc:  "every exported Config field must be referenced by the package's validate/normalize function",
	Run:  runConfigCheck,
}

var validatorNames = map[string]bool{
	"validate": true, "Validate": true, "normalize": true, "Normalize": true,
}

func runConfigCheck(p *Package) []Diagnostic {
	var diags []Diagnostic
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		if name != "Config" && !strings.HasSuffix(name, "Config") {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		validators := findValidators(p, named)
		if len(validators) == 0 {
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(tn.Pos()),
				Analyzer: configCheckName,
				Message:  "exported config struct " + name + " has no validate/normalize function",
			})
			continue
		}
		referenced := make(map[*types.Var]bool)
		for _, v := range validators {
			collectFieldRefs(p, v, referenced)
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() || referenced[f] || isContextType(f.Type()) {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      p.Fset.Position(f.Pos()),
				Analyzer: configCheckName,
				Message:  name + "." + f.Name() + " is never referenced by " + name + "'s validate/normalize function; unvalidated knob",
			})
		}
	}
	return diags
}

// findValidators returns the bodies of validator functions for the named
// config type: methods named validate/normalize (any case) on the type, or
// package functions with it as the first parameter.
func findValidators(p *Package, named *types.Named) []*ast.FuncDecl {
	matches := func(t types.Type) bool {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		n, ok := t.(*types.Named)
		return ok && n.Obj() == named.Obj()
	}
	var out []*ast.FuncDecl
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !validatorNames[fn.Name.Name] {
				continue
			}
			obj, ok := p.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if recv := sig.Recv(); recv != nil {
				if matches(recv.Type()) {
					out = append(out, fn)
				}
				continue
			}
			if sig.Params().Len() > 0 && matches(sig.Params().At(0).Type()) {
				out = append(out, fn)
			}
		}
	}
	return out
}

// collectFieldRefs marks every struct field selected anywhere in fn's body.
func collectFieldRefs(p *Package, fn *ast.FuncDecl, refs map[*types.Var]bool) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				refs[v] = true
			}
		}
		return true
	})
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
