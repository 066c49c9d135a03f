package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

const directiveSrc = `package p

//simlint:hotpath
func Hot() {}

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

// Frozen is documented.
//
//simlint:frozen
type Frozen struct {
	mu int
	//simlint:guardedby mu
	guarded int
	plain   int
}

type Thawed struct{ n int }
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

func findFunc(f *ast.File, name string) *ast.FuncDecl {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	return nil
}

func TestFileDirectives(t *testing.T) {
	_, _, dirs := parseDirectiveSrc(t)

	var got []Directive
	for _, ds := range dirs {
		got = append(got, ds...)
	}
	if len(got) != 5 {
		t.Fatalf("parsed %d directives, want 5: %+v", len(got), got)
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
	if d := byName["hotpath"]; d.Arg != "" {
		t.Errorf("hotpath arg = %q", d.Arg)
	}
}

func TestFuncDirective(t *testing.T) {
	fset, f, dirs := parseDirectiveSrc(t)
	want := map[string]struct {
		directive string
		has       bool
	}{
		"Hot":  {"hotpath", true},  // directly above the decl
		"Warm": {"ordered", true},  // at the end of a multi-line doc comment
		"Cold": {"ordered", false}, // near-miss spellings are not directives
	}
	for name, w := range want {
		fd := findFunc(f, name)
		if fd == nil {
			t.Fatalf("func %s not found", name)
		}
		if got := funcDirective(dirs, fset, fd, w.directive); got != w.has {
			t.Errorf("funcDirective(%s, %q) = %v, want %v", name, w.directive, got, w.has)
		}
	}
}

// findType returns the GenDecl/TypeSpec pair of a named type.
func findType(f *ast.File, name string) (*ast.GenDecl, *ast.TypeSpec) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
				return gd, ts
			}
		}
	}
	return nil, nil
}

func TestTypeDirective(t *testing.T) {
	fset, f, dirs := parseDirectiveSrc(t)
	for name, want := range map[string]bool{"Frozen": true, "Thawed": false} {
		gd, ts := findType(f, name)
		if ts == nil {
			t.Fatalf("type %s not found", name)
		}
		if got := typeDirective(dirs, fset, gd, ts, "frozen"); got != want {
			t.Errorf("typeDirective(%s, frozen) = %v, want %v", name, got, want)
		}
	}
}

func TestFieldLineDirective(t *testing.T) {
	fset, f, dirs := parseDirectiveSrc(t)
	_, ts := findType(f, "Frozen")
	st := ts.Type.(*ast.StructType)
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			d, ok := fieldLineDirective(dirs, fset, name, "guardedby")
			if want := name.Name == "guarded"; ok != want {
				t.Errorf("fieldLineDirective(%s) = %v, want %v", name.Name, ok, want)
			} else if ok && d.Arg != "mu" {
				t.Errorf("guarded: arg = %q, want mu", d.Arg)
			}
		}
	}
}

func TestSuppressed(t *testing.T) {
	fset, f, dirs := parseDirectiveSrc(t)
	stmt := findFunc(f, "Warm").Body.List[0] // x := 1 with the trailing wallclock comment
	if !suppressed(dirs, fset, stmt.Pos(), "wallclock") {
		t.Error("same-line wallclock directive not recognized")
	}
	if suppressed(dirs, fset, stmt.Pos(), "ordered") {
		t.Error("unrelated directive accepted as suppression")
	}
}
