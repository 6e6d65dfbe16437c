// Command unidblint runs the in-tree invariant analyzer suite
// (internal/lint) over the module: the per-package checks lockcheck (lock
// pairing), errdrop (dropped errors), exhaustive (AST and enum switches),
// determinism (no wall clock, randomness or map range in the executor, CSR
// and fan-out paths), txnend (transaction lifecycle), syncbarrier (no
// commit acknowledged before durability) and cowsafe (no in-place write to
// a shared B+tree node), plus the whole-program analyzers built on
// interprocedural lock summaries (lockorder, snapshotpure). It is
// stdlib-only — the importer type-checks the module and its
// standard-library dependencies from source — and exits nonzero when any
// invariant is violated.
//
// Usage:
//
//	go run ./cmd/unidblint ./...            # whole module (the usual form)
//	go run ./cmd/unidblint ./internal/wal   # one package
//	go run ./cmd/unidblint -json ./...      # machine-readable diagnostics
//	go run ./cmd/unidblint -C dir ./...     # lint the module rooted at dir
//	go run ./cmd/unidblint -list            # describe the analyzers
//
// Suppression: a `//unidblint:ignore <analyzer> <why>` comment on (or
// directly above) the offending line, or a path fragment registered in the
// suite configuration (internal/lint/config.go) — fragments match complete,
// slash-bounded path segments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unidblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array")
	chdir := fs.String("C", ".", "module directory to lint (defaults to the current directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	runner := lint.DefaultRunner()
	if *list {
		for _, a := range runner.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		for _, a := range runner.ProgramAnalyzers {
			fmt.Fprintf(stdout, "%-12s %s (whole-program)\n", a.Name(), a.Doc())
		}
		return 0
	}

	loader, err := lint.NewLoader(*chdir)
	if err != nil {
		fmt.Fprintln(stderr, "unidblint:", err)
		return 1
	}
	paths, err := resolvePatterns(loader, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "unidblint:", err)
		return 1
	}
	diags, err := runner.Run(loader, paths)
	if err != nil {
		fmt.Fprintln(stderr, "unidblint:", err)
		return 1
	}
	if *asJSON {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     relPath(loader.ModuleDir, d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "unidblint:", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, relativize(loader.ModuleDir, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "unidblint: %d violation(s)\n", len(diags))
		return 1
	}
	return 0
}

// resolvePatterns expands command-line package patterns. Supported forms:
// "./..." (whole module), "./x/y" and "x/y" (module-relative directories),
// and fully-qualified import paths.
func resolvePatterns(l *lint.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "all" || arg == l.ModulePath+"/...":
			pkgs, err := l.ModulePackages()
			if err != nil {
				return nil, err
			}
			for _, p := range pkgs {
				add(p)
			}
		case strings.HasPrefix(arg, l.ModulePath):
			add(arg)
		default:
			rel := strings.TrimPrefix(arg, "./")
			rel = strings.TrimSuffix(rel, "/")
			if rel == "." || rel == "" {
				add(l.ModulePath)
			} else {
				add(l.ModulePath + "/" + filepath.ToSlash(rel))
			}
		}
	}
	return out, nil
}

// relPath shortens a file path to module-relative form when possible.
func relPath(moduleDir, file string) string {
	if rel, err := filepath.Rel(moduleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// relativize shortens diagnostic file paths to module-relative form.
func relativize(moduleDir string, d lint.Diagnostic) string {
	d.Pos.Filename = relPath(moduleDir, d.Pos.Filename)
	return d.String()
}
