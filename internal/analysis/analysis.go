// Package analysis is simlint's static-analysis core: a small,
// stdlib-only framework in the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic), plus the two analyzers whose bug
// classes no cheaper net catches:
//
//   - determinism: no wall clocks, unseeded randomness, map-order leaks
//     or map formatting in simulator packages (a map-order leak shows
//     up only as a flaky table)
//   - globalmut:   simulator packages do not write package-level state
//     outside init, and store to no package-level atomic at all (a
//     store to an atomic never races, so -race cannot see it)
//
// The simulator's other invariants — no allocation on the per-cycle
// paths, every counter reported, decoded programs read-only, mutexes
// held, panics that name their point — are held by tests, not lint
// (DESIGN.md "Enforced invariants").
//
// The framework is intentionally dependency-free: the container pins the
// module graph, so the x/tools analysis driver is reimplemented here on
// go/ast + go/types, with package loading via `go list -export` (see
// load.go). The directive grammar has three verbs, each a justified
// escape from one finding:
//
//	//simlint:ordered <justification>
//	//simlint:wallclock <justification>
//	//simlint:ok <justification>
//
// A //simlint: comment with any other verb is itself a finding: a
// directive no analyzer reads would read like a contract nobody keeps.
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

// Analyzer is one simlint check: Run inspects a single package of the
// simulator scope (simulatorOrFixture).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
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
	return []*Analyzer{DeterminismAnalyzer, GlobalmutAnalyzer}
}

// RunSuite runs the analyzers over every package of the module in the
// simulator scope, checks every package's directives against the
// grammar, and returns the findings sorted by position.
func RunSuite(m *Module, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range m.Pkgs {
		checkDirectives(pkg, report)
		if !simulatorOrFixture(pkg.Path) {
			continue
		}
		for _, a := range analyzers {
			a.Run(&Pass{Package: pkg, Analyzer: a, report: report})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	return diags
}

// simulatorPackages is the scope of the determinism and globalmut
// contracts: the packages whose outputs feed Stats, tables and the
// content-addressed launch memo and checkpoint journal.
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

// simulatorOrFixture is the analyzers' scope: the simulator packages,
// plus the analyzer fixture packages. Fixtures are invisible to ./...
// sweeps (the go tool skips testdata), but the fixture tests and CI's
// fixture-hygiene step name them explicitly.
func simulatorOrFixture(pkgPath string) bool {
	return simulatorPackages[pkgPath] || strings.Contains(pkgPath, "/testdata/src/")
}

// Directive is one parsed //simlint: comment.
type Directive struct {
	Name string // "ordered", "wallclock" or "ok"
	Arg  string // justification text, may be empty
}

// directiveVerbs are the directive names some analyzer reads.
var directiveVerbs = map[string]bool{"ordered": true, "wallclock": true, "ok": true}

// parseDirective splits a comment into a directive's name and argument;
// ok is false when the comment is not a //simlint: directive.
func parseDirective(c *ast.Comment) (name, arg string, ok bool) {
	text, ok := strings.CutPrefix(c.Text, "//simlint:")
	if !ok {
		return "", "", false
	}
	name, arg, _ = strings.Cut(text, " ")
	return name, strings.TrimSpace(arg), true
}

// FileDirectives extracts every //simlint: directive of a file, keyed by
// the line the comment sits on.
func FileDirectives(fset *token.FileSet, f *ast.File) map[int][]Directive {
	out := map[int][]Directive{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if name, arg, ok := parseDirective(c); ok {
				line := fset.Position(c.Pos()).Line
				out[line] = append(out[line], Directive{Name: name, Arg: arg})
			}
		}
	}
	return out
}

// checkDirectives reports every //simlint: comment of the package whose
// verb no analyzer reads — a directive that outlived its analyzer, or a
// misspelt one that excuses nothing.
func checkDirectives(pkg *Package, report func(Diagnostic)) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if name, _, ok := parseDirective(c); ok && !directiveVerbs[name] {
					report(Diagnostic{
						Pos:      pkg.Fset.Position(c.Pos()),
						Analyzer: "directive",
						Message:  fmt.Sprintf("unknown directive //simlint:%s; the verbs are ordered, wallclock and ok", name),
					})
				}
			}
		}
	}
}

// suppressed reports whether a directive of the given name sits on the
// node's line or the line directly above it — the two placements the
// grammar allows for statement-level justification.
func suppressed(dirs map[int][]Directive, fset *token.FileSet, pos token.Pos, name string) bool {
	line := fset.Position(pos).Line
	for _, l := range [2]int{line, line - 1} {
		for _, d := range dirs[l] {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}
