package tcgpu

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents name tests, fuzz targets, benchmarks and source files as
// the nets and places a change is checked against; a name that no longer
// exists sends a reader nowhere. Every Test/Fuzz/Benchmark name and every
// .go path cited in them must exist in the tree: a name may end in a
// {A,B} alternation or a * prefix glob, a path may be cited by a trailing
// part ("ptx/exec.go" or "exec.go").
var (
	citedDocs = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}
	citedName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*(?:\{[\w,]+\}\w*|\*)?`)
	citedPath = regexp.MustCompile(`(?:^|[^\w*])([A-Za-z0-9][\w./-]*\.go)\b`)
)

func TestDocsCiteExistingNames(t *testing.T) {
	var funcs, files strings.Builder // "\n"-separated, for substring lookups
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return cmp.Or(err, filepath.SkipDir) // skips .git, .bench_build and the like
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		files.WriteString("\n/" + filepath.ToSlash(path) + "\n")
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs.WriteString("\n" + fn.Name.Name + "\n")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := func(cited string) bool {
		head, alts, _ := strings.Cut(cited, "{")
		alts, tail, _ := strings.Cut(alts, "}")
		for _, alt := range strings.Split(alts, ",") {
			name := head + alt + tail
			prefix, glob := strings.CutSuffix(name, "*")
			if !strings.Contains(funcs.String(), "\n"+prefix) || !glob && !strings.Contains(funcs.String(), "\n"+name+"\n") {
				return false
			}
		}
		return true
	}
	for _, doc := range citedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedName.FindAllString(string(text), -1) {
			if !declared(name) {
				t.Errorf("%s cites %s, which no Go file in the tree declares", doc, name)
			}
		}
		for _, m := range citedPath.FindAllStringSubmatch(string(text), -1) {
			if !strings.Contains(files.String(), "/"+strings.TrimPrefix(m[1], "./")+"\n") {
				t.Errorf("%s cites %s, which is no Go file in the tree", doc, m[1])
			}
		}
	}
}
