package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The determinism analyzer. The simulator must be a pure function of
// (kernel, Config, knobs): the same inputs must produce byte-identical
// Stats and tables on every run, on every shard, from every cache. In
// the simulator packages it therefore flags:
//
//  1. time.Now / time.Since — wall clocks in a stats or timing path
//     poison the content-addressed launch memo and checkpoint
//     journal. Sanctioned diagnostic-only uses carry
//     //simlint:wallclock <why>.
//  2. math/rand functions that draw from the process-global source —
//     workload generation must thread an explicitly seeded *rand.Rand.
//  3. Map iteration whose body writes state that outlives the loop, the
//     classic map-order leak. Writes that are provably order-free stay
//     legal: inserts keyed by the ranged key, integer accumulation
//     (+=, ++, |=, &=, ^=), and deletes. Anything else needs a
//     //simlint:ordered <why> justification on the range statement.
//  4. fmt formatting of map-typed values. fmt sorts keys, but only for
//     comparable key orders; mixed-type interface keys and NaN keys
//     still render nondeterministically, so tables never format maps
//     directly.
//
// Test files are exempt: the contract covers what ships in the
// simulator, and the equivalence/fuzz harnesses legitimately use
// clocks and randomness.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, unseeded randomness and map-order leaks in simulator packages",
	Run:  runDeterminism,
}

// globalRandExceptions lists the math/rand package-level functions that
// do not draw from the global source.
var globalRandExceptions = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(pass *Pass) {
	for _, f := range pass.Files {
		dirs := FileDirectives(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkDeterminismCall(pass, dirs, n)
			case *ast.RangeStmt:
				checkMapRange(pass, dirs, n)
			}
			return true
		})
	}
}

func checkDeterminismCall(pass *Pass, dirs map[int][]Directive, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pkgPath := selectorPackage(pass, sel)
	name := sel.Sel.Name
	switch {
	case pkgPath == "time" && (name == "Now" || name == "Since"):
		if !suppressed(dirs, pass.Fset, call.Pos(), "wallclock") {
			pass.Reportf(call.Pos(), "time.%s in a simulator package breaks run-to-run reproducibility; justify diagnostic-only use with //simlint:wallclock <why>", name)
		}
	case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !globalRandExceptions[name]:
		pass.Reportf(call.Pos(), "rand.%s draws from the process-global source; thread an explicitly seeded *rand.Rand instead", name)
	case pkgPath == "fmt" && fmtFormats(name):
		for _, arg := range call.Args {
			t := pass.Info.TypeOf(arg)
			if t == nil {
				continue
			}
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			if _, ok := t.Underlying().(*types.Map); ok {
				if !suppressed(dirs, pass.Fset, call.Pos(), "ordered") {
					pass.Reportf(arg.Pos(), "fmt.%s of a map renders in unstable order for uncomparable key mixes; format sorted keys explicitly or justify with //simlint:ordered <why>", name)
				}
			}
		}
	}
}

// fmtFormats reports whether the fmt function formats its operands
// (Print*/Sprint*/Fprint*/Errorf/Append*, as opposed to the scanners).
func fmtFormats(name string) bool {
	for _, p := range [...]string{"Print", "Sprint", "Fprint", "Errorf", "Append"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// selectorPackage resolves x in x.Sel to an imported package path, or "".
func selectorPackage(pass *Pass, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

func checkMapRange(pass *Pass, dirs map[int][]Directive, rs *ast.RangeStmt) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if suppressed(dirs, pass.Fset, rs.Pos(), "ordered") {
		return
	}
	keyObj := rangeKeyObject(pass, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkRangeWrite(pass, rs, keyObj, lhs, n.Tok)
			}
		case *ast.IncDecStmt:
			checkRangeWrite(pass, rs, keyObj, n.X, token.INC)
		}
		return true
	})
}

func rangeKeyObject(pass *Pass, rs *ast.RangeStmt) types.Object {
	id, ok := rs.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// checkRangeWrite flags a write inside a map-range body whose target
// outlives the loop, unless the write is provably iteration-order-free.
func checkRangeWrite(pass *Pass, rs *ast.RangeStmt, keyObj types.Object, lhs ast.Expr, tok token.Token) {
	root, keyedIndex := unwrapWriteTarget(pass, keyObj, lhs)
	if root == nil || root.Name == "_" {
		return
	}
	obj := pass.Info.ObjectOf(root)
	if obj == nil {
		return
	}
	if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
		return // declared inside the loop; dies with the iteration
	}
	if keyedIndex {
		return // m2[k] = v: keyed by the ranged key, order-free
	}
	switch tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.INC, token.DEC:
		if b, ok := pass.Info.TypeOf(lhs).Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			return // exact commutative accumulation
		}
	}
	pass.Reportf(lhs.Pos(), "map iteration order leaks into %s, which outlives the loop; iterate sorted keys or justify with //simlint:ordered <why>", root.Name)
}

// unwrapWriteTarget walks selector/index/star wrappers down to the root
// identifier, noting whether any index along the way is exactly the
// ranged key variable.
func unwrapWriteTarget(pass *Pass, keyObj types.Object, e ast.Expr) (*ast.Ident, bool) {
	keyed := false
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, keyed
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			if id, ok := x.Index.(*ast.Ident); ok && keyObj != nil && pass.Info.ObjectOf(id) == keyObj {
				keyed = true
			}
			e = x.X
		default:
			return nil, keyed
		}
	}
}
