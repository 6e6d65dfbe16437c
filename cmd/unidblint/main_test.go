package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestGoldenListing runs the CLI in-process against the fixture module under
// testdata/module and diffs the complete diagnostic listing against the
// committed golden file. The fixture covers the three visibility cases in
// one listing: a real violation (reported), an `//unidblint:ignore`
// suppression (absent), and a violation under examples/ caught by path
// suppression (absent) — plus the whole-program lockorder diagnostics for
// mutexes the order table does not rank.
func TestGoldenListing(t *testing.T) {
	golden := readGolden(t, "golden.txt")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "module"), "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (fixture module has violations); stderr: %s", code, stderr.String())
	}
	if got := stdout.String(); got != golden {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
	if want := "unidblint: 3 violation(s)\n"; stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
}

// TestGoldenJSON pins the -json wire format the CI artifact step uploads.
func TestGoldenJSON(t *testing.T) {
	golden := readGolden(t, "golden.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "module"), "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1; stderr: %s", code, stderr.String())
	}
	if got := stdout.String(); got != golden {
		t.Errorf("golden JSON mismatch:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestCleanModuleExitsZero checks the success path: restricting the run to
// the examples package (whose violation is path-suppressed) must produce an
// empty listing and exit 0.
func TestCleanModuleExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", filepath.Join("testdata", "module"), "./examples/demo"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected empty listing, got: %s", stdout.String())
	}
}

// TestListIncludesProgramAnalyzers keeps -list honest: every configured
// per-package and whole-program analyzer appears in it.
func TestListIncludesProgramAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	var names []string
	for _, a := range lint.DefaultAnalyzers() {
		names = append(names, a.Name())
	}
	for _, a := range lint.DefaultProgramAnalyzers() {
		names = append(names, a.Name())
	}
	for _, name := range names {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("-list output missing analyzer %s:\n%s", name, stdout.String())
		}
	}
}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
