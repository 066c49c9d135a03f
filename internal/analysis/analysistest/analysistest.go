// Package analysistest runs a simlint analyzer over a fixture package
// and checks its diagnostics against the fixture's expectations, in the
// shape of golang.org/x/tools/go/analysis/analysistest: a comment
//
//	// want "regexp"
//
// on a line means the analyzer must report a diagnostic on that line
// whose message matches the regexp; every diagnostic must be wanted and
// every want must be matched. Multiple `want` clauses may share a line.
//
// Fixture packages live under internal/analysis/testdata/src/ — the go
// tool ignores testdata directories during ./... expansion, so fixtures
// stay out of builds and repo-wide sweeps, while explicit paths remain
// listable for the loader.
package analysistest

import (
	"go/ast"
	"regexp"
	"testing"

	"repro/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantClauseRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture package at pattern (relative to dir, the module
// root) and checks the analyzer's diagnostics, plus the directive
// grammar check every suite run makes, against its want comments. A nil
// analyzer checks the directive grammar alone.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pattern string) {
	t.Helper()
	m, err := analysis.Load(dir, pattern)
	if err != nil {
		t.Fatalf("load fixture %s: %v", pattern, err)
	}
	wants := collectWants(t, m)
	var analyzers []*analysis.Analyzer
	if a != nil {
		analyzers = append(analyzers, a)
	}
	diags := analysis.RunSuite(m, analyzers)

	for _, d := range diags {
		if w := matchWant(wants, d); w == nil {
			t.Errorf("unexpected diagnostic %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

func collectWants(t *testing.T, m *analysis.Module) []*want {
	t.Helper()
	var wants []*want
	addFile := func(f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				match := wantRE.FindStringSubmatch(c.Text)
				if match == nil {
					continue
				}
				clauses := wantClauseRE.FindAllStringSubmatch(match[1], -1)
				if clauses == nil {
					t.Fatalf("%s: malformed want comment %q", m.Fset.Position(c.Pos()), c.Text)
				}
				pos := m.Fset.Position(c.Pos())
				for _, cl := range clauses {
					re, err := regexp.Compile(cl[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp: %v", pos, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			addFile(f)
		}
	}
	return wants
}

func matchWant(wants []*want, d analysis.Diagnostic) *want {
	for _, w := range wants {
		if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return w
		}
	}
	return nil
}
