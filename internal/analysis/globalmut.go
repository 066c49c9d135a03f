package analysis

import (
	"go/ast"
	"go/types"
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
//  2. Store/Swap/Add/CompareAndSwap/Or/And on a package-level atomic,
//     wherever it sits: a process-global switch is state every
//     concurrent simulator reads, so it has no escape. Test-side
//     variants of a kernel or a simulator are values the test builds,
//     not a flag flipped under everyone else.
//
// Because every global write outside init is flagged, the
// receiver-reachable-pointer hazard — a gpu.Simulator or mem.System
// method parking receiver state in a global — is covered by the same
// rule: the store site itself is the finding.
var GlobalmutAnalyzer = &Analyzer{
	Name: "globalmut",
	Doc:  "forbid package-level state writes outside init and any store to a package-level atomic",
	Run:  runGlobalmut,
}

// atomicStoreMethods are the sync/atomic value methods that mutate.
var atomicStoreMethods = map[string]bool{
	"Store": true, "Swap": true, "Add": true, "CompareAndSwap": true, "Or": true, "And": true,
}

func runGlobalmut(pass *Pass) {
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
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						checkGlobalWrite(pass, dirs, lhs)
					}
				case *ast.IncDecStmt:
					checkGlobalWrite(pass, dirs, n.X)
				case *ast.RangeStmt:
					if n.Key != nil {
						checkGlobalWrite(pass, dirs, n.Key)
					}
					if n.Value != nil {
						checkGlobalWrite(pass, dirs, n.Value)
					}
				case *ast.CallExpr:
					checkAtomicStore(pass, n)
				}
				return true
			})
		}
	}
}

// checkGlobalWrite flags lhs when its root identifier is a package-level
// variable (of any package) and the write carries no //simlint:ok.
func checkGlobalWrite(pass *Pass, dirs map[int][]Directive, lhs ast.Expr) {
	root, _ := unwrapWriteTarget(pass, nil, lhs)
	if root == nil || root.Name == "_" {
		return
	}
	if !isPackageVar(pass.Info.ObjectOf(root)) || suppressed(dirs, pass.Fset, lhs.Pos(), "ok") {
		return
	}
	pass.Reportf(lhs.Pos(), "writes package-level %s outside init; shared simulator state must be receiver-owned (or justify with //simlint:ok <why>)", root.Name)
}

// checkAtomicStore flags every mutating atomic method call on a
// package-level variable.
func checkAtomicStore(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !atomicStoreMethods[sel.Sel.Name] {
		return
	}
	root, _ := unwrapWriteTarget(pass, nil, sel.X)
	if root == nil {
		return
	}
	if obj := pass.Info.ObjectOf(root); !isPackageVar(obj) || !isAtomicType(obj.Type()) {
		return
	}
	pass.Reportf(call.Pos(), "%s.%s mutates a package-level atomic: a process-global switch every concurrent simulator reads; move the state onto the receiver", root.Name, sel.Sel.Name)
}

// isPackageVar reports whether obj is a package-level variable.
func isPackageVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}
