package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The loader: a stdlib-only stand-in for x/tools/go/packages. One
// `go list -export -deps -json` invocation yields compiler export data
// for every dependency (the go build cache does the heavy lifting), the
// matched packages are re-parsed and type-checked from source against
// that export data. Test files are not loaded: every contract is about
// the simulator's own code.

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // compiled (non-test) files, type-checked
	Types *types.Package
	Info  *types.Info
}

// Module is the full set of packages one simlint run analyzes.
type Module struct {
	Fset *token.FileSet
	Pkgs []*Package // sorted by import path
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	CgoFiles   []string
	Incomplete bool
	Error      *struct{ Err string }
}

// Load lists patterns from dir (a directory inside the module), builds
// export data for the dependency closure, and returns the matched
// packages parsed and type-checked.
func Load(dir string, patterns ...string) (*Module, error) {
	targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	deps, err := goList(dir, patterns, "-deps", "-export")
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	for _, p := range deps {
		if p.Error != nil {
			return nil, fmt.Errorf("load %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	m := &Module{Fset: fset}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("load %s: %s", t.ImportPath, t.Error.Err)
		}
		pkg, err := typeCheck(fset, imp, t)
		if err != nil {
			return nil, err
		}
		m.Pkgs = append(m.Pkgs, pkg)
	}
	return m, nil
}

// LoadModule loads every package of the module containing dir.
func LoadModule(dir string) (*Module, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	return Load(root, "./...")
}

// moduleRoot resolves the root directory of the module containing dir.
func moduleRoot(dir string) (string, error) {
	out, err := runGo(dir, "env", "GOMOD")
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("simlint: %s is not inside a module", dir)
	}
	return filepath.Dir(gomod), nil
}

func typeCheck(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	if len(lp.CgoFiles) > 0 {
		return nil, fmt.Errorf("load %s: cgo packages are not supported", lp.ImportPath)
	}
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	cfg := types.Config{Importer: imp}
	tpkg, err := cfg.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", lp.ImportPath, err)
	}
	return &Package{
		Path:  lp.ImportPath,
		Dir:   lp.Dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

func goList(dir string, patterns []string, extra ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, extra...)
	args = append(args, patterns...)
	out, err := runGo(dir, args...)
	if err != nil {
		return nil, err
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func runGo(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out, nil
}
