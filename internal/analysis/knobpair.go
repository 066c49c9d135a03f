package analysis

import (
	"go/ast"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// The knobpair analyzer. Every exported Legacy* function taking a single
// bool is an equivalence knob: it swaps a legacy implementation back in
// so tests can assert the optimized path is bit-identical
// (ptx.LegacyFragmentPath).
// The 4-level equivalence contract is only honest while both positions
// of every knob stay exercised, so this analyzer requires each knob to
// be called from test files with true and with false.
//
// Matching is intentionally syntactic on the test side: any
// `pkg.Knob(lit)` or in-package `Knob(lit)` call in a _test.go file
// counts, and a non-literal argument (a sweep variable such as
// `for _, legacy := range []bool{false, true}`) counts as both
// positions. Knob definitions are collected from packages under
// internal/.
var KnobpairAnalyzer = &Analyzer{
	Name:      "knobpair",
	Doc:       "require tests to exercise every Legacy* equivalence knob in both positions",
	RunModule: runKnobpair,
}

var knobNameRE = regexp.MustCompile(`^Legacy[A-Z]`)

type knobUse struct{ onTrue, onFalse bool }

func runKnobpair(m *Module, report func(Diagnostic)) {
	type knob struct {
		pkg  *Package
		decl *ast.FuncDecl
	}
	knobs := map[string]knob{}
	for _, pkg := range m.Pkgs {
		if !internalPackage(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && isKnobDecl(fd) {
					knobs[fd.Name.Name] = knob{pkg, fd}
				}
			}
		}
	}
	if len(knobs) == 0 {
		return
	}

	uses := map[string]*knobUse{}
	for name := range knobs {
		uses[name] = &knobUse{}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.TestFiles {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				var name string
				switch fun := ast.Unparen(call.Fun).(type) {
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				case *ast.Ident:
					name = fun.Name
				default:
					return true
				}
				// The Swap helper (SwapLegacyFragmentPath — globalmut's
				// sanctioned test shape) exercises the knob it wraps.
				name = strings.TrimPrefix(name, "Swap")
				u, ok := uses[name]
				if !ok {
					return true
				}
				switch arg := ast.Unparen(call.Args[0]).(type) {
				case *ast.Ident:
					switch arg.Name {
					case "true":
						u.onTrue = true
					case "false":
						u.onFalse = true
					default:
						// A sweep variable: assumed to take both values.
						u.onTrue, u.onFalse = true, true
					}
				default:
					u.onTrue, u.onFalse = true, true
				}
				return true
			})
		}
	}

	names := make([]string, 0, len(knobs))
	for name := range knobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		k, u := knobs[name], uses[name]
		missing := ""
		switch {
		case !u.onTrue && !u.onFalse:
			missing = "either position"
		case !u.onTrue:
			missing = "true"
		case !u.onFalse:
			missing = "false"
		default:
			continue
		}
		report(Diagnostic{
			Pos:      m.Fset.Position(k.decl.Name.Pos()),
			Analyzer: "knobpair",
			Message: "equivalence knob " + name + " is never tested with " + missing +
				"; the legacy/optimized equivalence contract needs both settings exercised",
		})
	}
}

// isKnobDecl matches exported top-level `func LegacyX(on bool)`.
func isKnobDecl(fd *ast.FuncDecl) bool {
	if fd.Recv != nil || !knobNameRE.MatchString(fd.Name.Name) {
		return false
	}
	ft := fd.Type
	if ft.Results != nil && len(ft.Results.List) > 0 {
		return false
	}
	if len(ft.Params.List) != 1 || len(ft.Params.List[0].Names) != 1 {
		return false
	}
	id, ok := ft.Params.List[0].Type.(*ast.Ident)
	return ok && id.Name == "bool"
}

// internalPackage reports whether the import path is under internal/
// (or is a fixture package, which has no internal element but is only
// ever loaded explicitly by the tests).
func internalPackage(path string) bool {
	return slices.Contains(strings.Split(path, "/"), "internal") ||
		slices.Contains(strings.Split(path, "/"), "testdata")
}
