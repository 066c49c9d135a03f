// Command simlint runs the repository's static-analysis suite: the
// seven analyzers that mechanically enforce the simulator's
// determinism, hot-path, stat-reporting and concurrency-safety
// invariants (see internal/analysis and DESIGN.md "Enforced
// invariants").
//
// Usage:
//
//	simlint [packages]                 # default ./...
//	simlint -analyzers determinism,hotpath ./internal/...
//	simlint -json ./...
//	simlint -list
//
// Exit status: 0 clean, 1 findings, 2 usage or load error. Findings
// print as file:line:col: analyzer: message, one per line, so CI can
// lift them straight into the job summary; -json instead emits one
// JSON array of {file,line,col,analyzer,message} objects (always an
// array, [] when clean) for machine consumers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array instead of file:line:col lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "simlint: unknown analyzer %q (see simlint -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	m, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}

	diags := analysis.RunSuite(m, analyzers)
	cwd, _ := os.Getwd()
	relName := func(name string) string {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return name
	}
	if *asJSON {
		// Always an array (never null) so `jq length` and range
		// iteration work on a clean run without special-casing.
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				File:     relName(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s) in %d package(s)\n", len(diags), len(m.Pkgs))
		return 1
	}
	return 0
}

// jsonFinding is the -json wire form of one diagnostic; the CI lint job
// builds its Markdown summary from these objects.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}
