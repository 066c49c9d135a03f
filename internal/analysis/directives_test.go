package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directiveSrc = `package p

// Warm is documented at length.
//
//simlint:ordered keys are sorted downstream
func Warm() {
	x := 1 //simlint:wallclock trailing justification
	_ = x
}

// plain comment, not a directive
// simlint:ordered (space after // — not a directive either)
func Cold() {}

//simlint:ok
var y int
`

func parseDirectiveSrc(t *testing.T) (*token.FileSet, *ast.File, map[int][]Directive) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", directiveSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, FileDirectives(fset, f)
}

func TestFileDirectives(t *testing.T) {
	_, _, dirs := parseDirectiveSrc(t)

	var got []Directive
	for _, ds := range dirs {
		got = append(got, ds...)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d directives, want 3: %+v", len(got), got)
	}
	byName := map[string]Directive{}
	for _, d := range got {
		byName[d.Name] = d
	}
	if d := byName["ordered"]; d.Arg != "keys are sorted downstream" {
		t.Errorf("ordered arg = %q", d.Arg)
	}
	if d := byName["wallclock"]; d.Arg != "trailing justification" {
		t.Errorf("wallclock arg = %q", d.Arg)
	}
	if d := byName["ok"]; d.Arg != "" {
		t.Errorf("ok arg = %q", d.Arg)
	}
}

func TestSuppressed(t *testing.T) {
	fset, f, dirs := parseDirectiveSrc(t)
	var warm *ast.FuncDecl
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "Warm" {
			warm = fd
		}
	}
	stmt := warm.Body.List[0] // x := 1 with the trailing wallclock comment
	if !suppressed(dirs, fset, stmt.Pos(), "wallclock") {
		t.Error("same-line wallclock directive not recognized")
	}
	if suppressed(dirs, fset, stmt.Pos(), "ordered") {
		t.Error("unrelated directive accepted as suppression")
	}
	if !suppressed(dirs, fset, warm.Pos(), "ordered") {
		t.Error("directive on the line above not recognized")
	}
}
