package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errb.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got := strings.Join(names, ","); got != "determinism,globalmut" {
		t.Errorf("-list names %s, want determinism,globalmut:\n%s", got, out.String())
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-analyzers", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr %q does not name the bad analyzer", errb.String())
	}
}

func TestUnknownFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-bogus"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	_ = out
}

func TestBadPattern(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"repro/internal/nosuchpkg"}, &out, &errb); code != 2 {
		t.Fatalf("run = %d, want 2 (stderr %q)", code, errb.String())
	}
}

// TestJSONClean pins the machine-readable contract on a clean run: the
// output must be an empty JSON array, not null and not empty output, so
// CI's jq pipeline needs no special cases.
func TestJSONClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "repro/internal/fp16"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, want 0\nstderr:\n%s", code, errb.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if findings == nil || len(findings) != 0 {
		t.Errorf("clean run must emit [], got %q", out.String())
	}
}

// TestJSONFindings runs one analyzer over its own flagged fixture and
// checks every -json object carries the full position and identity.
func TestJSONFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list")
	}
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-analyzers", "globalmut", "repro/internal/analysis/testdata/src/globalmut"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (fixture has findings)\nstderr:\n%s", code, errb.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("fixture run produced no findings")
	}
	for i, f := range findings {
		if f.File == "" || f.Line <= 0 || f.Col <= 0 || f.Message == "" {
			t.Errorf("finding %d incomplete: %+v", i, f)
		}
		if f.Analyzer != "globalmut" {
			t.Errorf("finding %d from analyzer %q, want globalmut", i, f.Analyzer)
		}
		// The test's cwd is cmd/simlint, so fixture files sit outside
		// it and stay absolute; only the suffix is stable.
		if !strings.HasSuffix(f.File, "globalmut.go") {
			t.Errorf("finding %d file %q: want the globalmut fixture file", i, f.File)
		}
	}
}

// TestCleanPackage runs the full suite over a package outside the
// simulator scope with no directives: the run must pass without output.
func TestCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"repro/internal/fp16"}, &out, &errb); code != 0 {
		t.Fatalf("run = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}
