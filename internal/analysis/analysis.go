// Package analysis is simlint's static-analysis core: a small,
// stdlib-only framework in the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic), plus the eight analyzers that turn the
// simulator's reproducibility, concurrency and fault-tolerance
// conventions into mechanically enforced invariants:
//
//   - determinism:  no wall clocks, unseeded randomness, map-order leaks
//     or map formatting in simulator packages (the purity the
//     content-addressed result cache and sharded sweeps depend on)
//   - hotpath:      no per-iteration allocations in functions annotated
//     //simlint:hotpath (the per-cycle issue/execute/coalesce/fragment
//     paths of PRs 2-5)
//   - knobpair:     every exported Legacy* equivalence knob is
//     exercised by tests in both positions
//   - statcomplete: every numeric gpu.Stats counter reaches a
//     //simlint:emitter report function
//   - globalmut:    simulator packages do not write package-level state
//     outside init; process-global equivalence knobs are atomic,
//     declared with //simlint:processknob, and written only through
//     their setter/Swap helper (tests must use the Swap helper)
//   - frozen:       //simlint:frozen types (decoded DInstr programs,
//     fragPlans, wmma mappings) are field-written only in their
//     same-package //simlint:ctor constructor set — the shared-read-only
//     contract the concurrent serving path depends on
//   - guardedby:    //simlint:guardedby mu fields are accessed only
//     under a syntactic mu.Lock() / defer mu.Unlock() scope
//   - recoversurface: every recover() converts the panic into an error
//     carrying the failing unit's identity (experiment ID, point index)
//     — the trail the keep-going sweep and its operators depend on
//
// The framework is intentionally dependency-free: the container pins the
// module graph, so the x/tools analysis driver is reimplemented here on
// go/ast + go/types, with package loading via `go list -export` (see
// load.go). Directives use the grammar documented in DESIGN.md
// ("Enforced invariants" and "Concurrency invariants"):
//
//	//simlint:hotpath
//	//simlint:emitter
//	//simlint:frozen
//	//simlint:ctor
//	//simlint:guardedby <mutex field>
//	//simlint:processknob <justification>
//	//simlint:ordered <justification>
//	//simlint:wallclock <justification>
//	//simlint:ok <justification>
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one simlint check. Run inspects a single package;
// RunModule inspects the whole module at once (for cross-package
// contracts like knobpair and statcomplete). Either may be nil.
type Analyzer struct {
	Name string
	Doc  string

	// Scope, when non-nil, restricts Run to packages it accepts. The
	// fixture harness bypasses it so testdata packages are analyzed
	// regardless of import path.
	Scope func(pkgPath string) bool

	Run       func(*Pass)
	RunModule func(*Module, func(Diagnostic))
}

// Pass carries one package through one analyzer.
type Pass struct {
	*Package
	Analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full simlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer, HotpathAnalyzer, KnobpairAnalyzer, StatcompleteAnalyzer,
		GlobalmutAnalyzer, FrozenAnalyzer, GuardedbyAnalyzer, RecoversurfaceAnalyzer,
	}
}

// RunSuite runs the analyzers over every package of the module
// (honouring each analyzer's Scope) and returns the findings sorted by
// position.
func RunSuite(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range m.Pkgs {
				if a.Scope != nil && !a.Scope(pkg.Path) {
					continue
				}
				a.Run(&Pass{Package: pkg, Analyzer: a, report: report})
			}
		}
		if a.RunModule != nil {
			a.RunModule(m, report)
		}
	}
	SortDiagnostics(diags)
	return diags
}

// RunIgnoringScope runs a single analyzer over every package of m,
// bypassing its Scope. The fixture harness uses it so testdata packages
// are analyzed despite their import paths.
func RunIgnoringScope(m *Module, a *Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	if a.Run != nil {
		for _, pkg := range m.Pkgs {
			a.Run(&Pass{Package: pkg, Analyzer: a, report: report})
		}
	}
	if a.RunModule != nil {
		a.RunModule(m, report)
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// simulatorPackages is the determinism contract's scope: the packages
// whose outputs feed Stats, tables and the (planned) content-addressed
// result cache, per ISSUE 6.
var simulatorPackages = map[string]bool{
	"repro/internal/gpu":         true,
	"repro/internal/ptx":         true,
	"repro/internal/mem":         true,
	"repro/internal/wmma":        true,
	"repro/internal/stats":       true,
	"repro/internal/experiments": true,
	// The serving cache hands stored bytes straight back to clients, so
	// it carries the same determinism burden as the engine that
	// produced them.
	"repro/internal/servecache": true,
}

// InSimulatorScope reports whether the determinism/statcomplete
// contracts apply to the package.
func InSimulatorScope(pkgPath string) bool { return simulatorPackages[pkgPath] }

// fixturePath reports whether the import path is an analyzer fixture
// package. Fixtures are invisible to ./... sweeps (the go tool skips
// testdata), but the CI fixture-hygiene step runs cmd/simlint over them
// explicitly, so the scoped analyzers must accept them.
func fixturePath(pkgPath string) bool {
	return strings.Contains(pkgPath, "/testdata/src/")
}

// simulatorOrFixture is the scope of the simulator-package contracts
// (determinism, globalmut), extended to explicitly listed fixtures.
func simulatorOrFixture(pkgPath string) bool {
	return InSimulatorScope(pkgPath) || fixturePath(pkgPath)
}

// Directive is one parsed //simlint: comment.
type Directive struct {
	Name string // "hotpath", "ordered", "wallclock", "emitter", "ok"
	Arg  string // justification text, may be empty
	Line int
}

// FileDirectives extracts every //simlint: directive of a file, keyed by
// the line the comment sits on.
func FileDirectives(fset *token.FileSet, f *ast.File) map[int][]Directive {
	out := map[int][]Directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//simlint:")
			if !ok {
				continue
			}
			name, arg, _ := strings.Cut(text, " ")
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], Directive{Name: name, Arg: strings.TrimSpace(arg), Line: line})
		}
	}
	return out
}

// suppressed reports whether a directive of the given name sits on the
// node's line or the line directly above it — the two placements the
// grammar allows for statement-level justification.
func suppressed(dirs map[int][]Directive, fset *token.FileSet, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	for _, d := range dirs[line] {
		if d.Name == name {
			return true
		}
	}
	for _, d := range dirs[line-1] {
		if d.Name == name {
			return true
		}
	}
	return false
}

// funcDirective reports whether a function declaration carries the
// directive, either in its doc comment or on the line above the decl.
func funcDirective(dirs map[int][]Directive, fset *token.FileSet, fd *ast.FuncDecl, name string) bool {
	declLine := fset.Position(fd.Pos()).Line
	first := declLine - 1
	if fd.Doc != nil {
		first = fset.Position(fd.Doc.Pos()).Line
	}
	for line := first; line < declLine; line++ {
		for _, d := range dirs[line] {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}
