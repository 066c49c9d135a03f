package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The globalmut analyzer. The serving frontier (simulation-as-a-service,
// multi-stream replay, distributed sweeps) shares simulator instances
// and decoded artifacts across goroutines, so simulator packages must
// not communicate through package-level state: a global written by one
// request is read by every other. In the simulator packages it flags:
//
//  1. Any write to a package-level variable outside init — plain
//     assignment, op-assignment, IncDec, or taking the variable as a
//     range-assign target. Registration-time population belongs in init
//     or the variable's initializer. A sanctioned exception carries
//     //simlint:ok <why>.
//  2. Store/Swap/Add/CompareAndSwap on a package-level atomic that does
//     not carry //simlint:processknob <why> — the directive is the
//     record that a process-global knob exists deliberately (the
//     Legacy*/Interpret* equivalence knobs) and documents why the
//     hazard is acceptable.
//  3. Writes to a //simlint:processknob variable anywhere except its
//     exported setter (func Knob(on bool), the CLI flag plumbing) or
//     its Swap helper (func SwapKnob(on bool) func(), the test-safe
//     set-and-restore path). Knob state must not be togglable from
//     arbitrary code paths.
//  4. A //simlint:processknob variable that is not atomic-typed, or a
//     processknob directive with no justification.
//
// Because every global write outside init is flagged, the
// receiver-reachable-pointer hazard — a gpu.Simulator or mem.System
// method parking receiver state in a global — is covered by the same
// rule: the store site itself is the finding.
//
// The module pass extends the contract to tests: a _test.go file
// calling a knob setter directly (ptx.LegacyAccessPath(true)) leaks the
// knob into every other test of the process; under t.Parallel the
// interleaving is a coin flip. Tests must use the Swap helper and
// register the restore (defer ptx.SwapLegacyAccessPath(true)() or
// t.Cleanup).
var GlobalmutAnalyzer = &Analyzer{
	Name:      "globalmut",
	Doc:       "forbid package-level state writes outside init; gate process-global knobs behind //simlint:processknob setters and Swap helpers",
	Scope:     simulatorOrFixture,
	Run:       runGlobalmut,
	RunModule: runGlobalmutTests,
}

// atomicStoreMethods are the sync/atomic value methods that mutate.
var atomicStoreMethods = map[string]bool{
	"Store": true, "Swap": true, "Add": true, "CompareAndSwap": true, "Or": true, "And": true,
}

func runGlobalmut(pass *Pass) {
	knobs := processKnobVars(pass)
	for _, f := range pass.Files {
		dirs := FileDirectives(pass.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Recv == nil && fd.Name.Name == "init" {
				continue // registration time; the package is still single-threaded
			}
			sanctioned := isKnobSetter(fd) || isSwapHelper(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkGlobalWrite(pass, dirs, knobs, sanctioned, lhs)
					}
				case *ast.IncDecStmt:
					checkGlobalWrite(pass, dirs, knobs, sanctioned, n.X)
				case *ast.RangeStmt:
					if n.Key != nil {
						checkGlobalWrite(pass, dirs, knobs, sanctioned, n.Key)
					}
					if n.Value != nil {
						checkGlobalWrite(pass, dirs, knobs, sanctioned, n.Value)
					}
				case *ast.CallExpr:
					checkAtomicStore(pass, dirs, knobs, sanctioned, n)
				}
				return true
			})
		}
	}
}

// processKnobVars collects this package's package-level variables
// annotated //simlint:processknob, validating the directive as it goes:
// the variable must be atomic-typed and the directive justified.
func processKnobVars(pass *Pass) map[types.Object]bool {
	knobs := map[types.Object]bool{}
	for _, f := range pass.Files {
		dirs := FileDirectives(pass.Fset, f)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					d, ok := declDirective(dirs, pass.Fset, gd, vs, name, "processknob")
					if !ok {
						continue
					}
					obj := pass.Info.Defs[name]
					if obj == nil || obj.Parent() != pass.Types.Scope() {
						pass.Reportf(name.Pos(), "//simlint:processknob applies only to package-level variables")
						continue
					}
					if d.Arg == "" {
						pass.Reportf(name.Pos(), "//simlint:processknob on %s needs a justification: why is a process-global knob acceptable here", name.Name)
					}
					if !isAtomicType(obj.Type()) {
						pass.Reportf(name.Pos(), "process-global knob %s must be atomic-typed (sync/atomic); a plain variable races between concurrent simulators", name.Name)
						continue
					}
					knobs[obj] = true
				}
			}
		}
	}
	return knobs
}

// declDirective looks a directive up on the var's own line, the spec's
// doc lines, or the enclosing GenDecl's doc lines.
func declDirective(dirs map[int][]Directive, fset *token.FileSet, gd *ast.GenDecl, vs *ast.ValueSpec, name *ast.Ident, want string) (Directive, bool) {
	first := fset.Position(gd.Pos()).Line - 1
	if gd.Doc != nil {
		first = fset.Position(gd.Doc.Pos()).Line
	}
	if vs.Doc != nil {
		if l := fset.Position(vs.Doc.Pos()).Line; l < first {
			first = l
		}
	}
	last := fset.Position(name.Pos()).Line
	for line := first; line <= last; line++ {
		for _, d := range dirs[line] {
			if d.Name == want {
				return d, true
			}
		}
	}
	return Directive{}, false
}

// checkGlobalWrite flags lhs when its root identifier is a package-level
// variable (of any package) and the write is not sanctioned.
func checkGlobalWrite(pass *Pass, dirs map[int][]Directive, knobs map[types.Object]bool, sanctioned bool, lhs ast.Expr) {
	root, _ := unwrapWriteTarget(pass, nil, lhs)
	if root == nil || root.Name == "_" {
		return
	}
	obj := pass.Info.ObjectOf(root)
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() == nil || v.Pkg() == nil {
		return
	}
	if v.Parent() != v.Pkg().Scope() {
		return // local, parameter, or field
	}
	if knobs[obj] {
		if !sanctioned {
			pass.Reportf(lhs.Pos(), "process-global knob %s may be written only by its exported setter or Swap helper", root.Name)
		}
		return
	}
	if suppressed(dirs, pass.Fset, lhs.Pos(), "ok") {
		return
	}
	pass.Reportf(lhs.Pos(), "writes package-level %s outside init; shared simulator state must be receiver-owned (or justify with //simlint:ok <why>)", root.Name)
}

// checkAtomicStore flags mutating atomic method calls on package-level
// variables: unannotated atomics need the processknob directive,
// annotated ones may only be stored from the setter/Swap helper.
func checkAtomicStore(pass *Pass, dirs map[int][]Directive, knobs map[types.Object]bool, sanctioned bool, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !atomicStoreMethods[sel.Sel.Name] {
		return
	}
	root, _ := unwrapWriteTarget(pass, nil, sel.X)
	if root == nil {
		return
	}
	obj := pass.Info.ObjectOf(root)
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return
	}
	if !isAtomicType(v.Type()) {
		return
	}
	if !knobs[obj] {
		if suppressed(dirs, pass.Fset, call.Pos(), "ok") {
			return
		}
		pass.Reportf(call.Pos(), "%s.%s mutates a package-level atomic with no //simlint:processknob directive; declare the knob deliberately or move the state onto the receiver", root.Name, sel.Sel.Name)
		return
	}
	if !sanctioned {
		pass.Reportf(call.Pos(), "process-global knob %s may be written only by its exported setter or Swap helper", root.Name)
	}
}

// isKnobSetter matches the CLI-flag-plumbing shape: an exported
// top-level func taking a single bool and returning nothing
// (ptx.LegacyAccessPath, ptx.InterpretALU).
func isKnobSetter(fd *ast.FuncDecl) bool {
	return fd.Recv == nil && fd.Name.IsExported() &&
		singleBoolParam(fd.Type) && resultCount(fd.Type) == 0
}

// isSwapHelper matches the test-safe shape: an exported top-level
// func Swap*(on bool) returning exactly a restore func().
func isSwapHelper(fd *ast.FuncDecl) bool {
	if fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Swap") || !singleBoolParam(fd.Type) {
		return false
	}
	if resultCount(fd.Type) != 1 {
		return false
	}
	ft, ok := fd.Type.Results.List[0].Type.(*ast.FuncType)
	return ok && (ft.Params == nil || len(ft.Params.List) == 0) && (ft.Results == nil || len(ft.Results.List) == 0)
}

func singleBoolParam(ft *ast.FuncType) bool {
	if len(ft.Params.List) != 1 || len(ft.Params.List[0].Names) > 1 {
		return false
	}
	id, ok := ft.Params.List[0].Type.(*ast.Ident)
	return ok && id.Name == "bool"
}

func resultCount(ft *ast.FuncType) int {
	if ft.Results == nil {
		return 0
	}
	n := 0
	for _, r := range ft.Results.List {
		if len(r.Names) == 0 {
			n++
		} else {
			n += len(r.Names)
		}
	}
	return n
}

func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// runGlobalmutTests is the module pass: collect the setter names of
// every processknob variable, then flag direct setter calls in test
// files. The setter leaves the knob flipped for the rest of the test
// process; the Swap helper (whose restore the test defers or hands to
// t.Cleanup) is the only call shape that cannot interleave knob states
// across parallel tests.
func runGlobalmutTests(m *Module, report func(Diagnostic)) {
	setters := map[string]bool{}
	for _, pkg := range m.Pkgs {
		if !simulatorOrFixture(pkg.Path) {
			continue
		}
		knobNames := map[string]bool{}
		for _, f := range pkg.Files {
			dirs := FileDirectives(pkg.Fset, f)
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, name := range vs.Names {
						if _, ok := declDirective(dirs, pkg.Fset, gd, vs, name, "processknob"); ok {
							knobNames[name.Name] = true
						}
					}
				}
			}
		}
		if len(knobNames) == 0 {
			continue
		}
		// An exported setter is plumbing for a knob when its body stores
		// to one of the package's processknob variables.
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isKnobSetter(fd) {
					continue
				}
				writes := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if ok && atomicStoreMethods[sel.Sel.Name] {
						if id, ok := sel.X.(*ast.Ident); ok && knobNames[id.Name] {
							writes = true
						}
					}
					return true
				})
				if writes {
					setters[fd.Name.Name] = true
				}
			}
		}
	}
	if len(setters) == 0 {
		return
	}

	for _, pkg := range m.Pkgs {
		for _, f := range pkg.TestFiles {
			dirs := FileDirectives(pkg.Fset, f)
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
				if !setters[name] {
					return true
				}
				if suppressed(dirs, pkg.Fset, call.Pos(), "ok") {
					return true
				}
				report(Diagnostic{
					Pos:      pkg.Fset.Position(call.Pos()),
					Analyzer: "globalmut",
					Message: name + " flips a process-global knob for the rest of the test process; use Swap" + name +
						" and register the restore (defer/t.Cleanup) so parallel tests cannot interleave knob states",
				})
				return true
			})
		}
	}
}
