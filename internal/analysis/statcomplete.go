package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// The statcomplete analyzer. The classic silently-dropped-counter bug:
// a field is added to gpu.Stats, accumulated carefully in the
// simulator, and never surfaces in any report — the number exists and
// nobody can see it. This analyzer requires every exported numeric
// field of a struct named Stats, or named with that suffix (LaunchStats),
// in a simulator package to be selected
// somewhere inside a function annotated //simlint:emitter (the
// sanctioned table/report surface: cmd/tcsim's stats block, the
// experiments table builders). Non-numeric fields (Trace) are not
// counters and are exempt.
var StatcompleteAnalyzer = &Analyzer{
	Name:      "statcomplete",
	Doc:       "require every numeric Stats counter to surface in a //simlint:emitter function",
	RunModule: runStatcomplete,
}

func runStatcomplete(m *Module, report func(Diagnostic)) {
	type statField struct {
		pkgPath string
		typ     string
		name    string
		pos     Diagnostic
	}
	var fields []statField
	for _, pkg := range m.Pkgs {
		if !InSimulatorScope(pkg.Path) && !internalPackage(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Stats") {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fl := range st.Fields.List {
					t := pkg.Info.TypeOf(fl.Type)
					if t == nil {
						continue
					}
					b, ok := t.Underlying().(*types.Basic)
					if !ok || b.Info()&types.IsNumeric == 0 {
						continue
					}
					for _, name := range fl.Names {
						if !name.IsExported() {
							continue
						}
						fields = append(fields, statField{
							pkgPath: pkg.Path,
							typ:     ts.Name.Name,
							name:    name.Name,
							pos: Diagnostic{
								Pos:      m.Fset.Position(name.Pos()),
								Analyzer: "statcomplete",
							},
						})
					}
				}
				return true
			})
		}
	}
	if len(fields) == 0 {
		return
	}

	// Emitted[pkgPath+"."+type+"."+field] marks fields selected in any
	// //simlint:emitter function, matched by package path and struct
	// name (object identity differs between the source-checked defining
	// package and export-data importers).
	emitted := map[string]bool{}
	sawEmitter := false
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			dirs := FileDirectives(m.Fset, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !funcDirective(dirs, m.Fset, fd, "emitter") {
					continue
				}
				sawEmitter = true
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					se, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					sel := pkg.Info.Selections[se]
					if sel == nil || sel.Kind() != types.FieldVal {
						return true
					}
					recv := sel.Recv()
					if p, ok := recv.(*types.Pointer); ok {
						recv = p.Elem()
					}
					named, ok := recv.(*types.Named)
					if !ok || !strings.HasSuffix(named.Obj().Name(), "Stats") || named.Obj().Pkg() == nil {
						return true
					}
					emitted[named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+se.Sel.Name] = true
					return true
				})
			}
		}
	}

	for _, f := range fields {
		if !sawEmitter {
			d := f.pos
			d.Message = f.typ + " has numeric counters but no //simlint:emitter function exists; annotate the report surface"
			report(d)
			return // one diagnostic, not one per field
		}
		if !emitted[f.pkgPath+"."+f.typ+"."+f.name] {
			d := f.pos
			d.Message = f.typ + "." + f.name + " is accumulated but never referenced by a //simlint:emitter function; the counter is silently dropped from every report"
			report(d)
		}
	}
}

// internalPackage reports whether the import path is under internal/
// (or is a fixture package, which has no internal element but is only
// ever loaded explicitly by the tests).
func internalPackage(path string) bool {
	return slices.Contains(strings.Split(path, "/"), "internal") ||
		slices.Contains(strings.Split(path, "/"), "testdata")
}
