package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// resultsFile is bench/out/results.json: where and on what the runs were
// made, every untraced run of every workload, and the traced run.
type resultsFile struct {
	NProc      int                     `json:"nproc"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Go         string                  `json:"go"`
	Commit     string                  `json:"commit"`
	Seed       int64                   `json:"seed"`
	Seconds    int                     `json:"seconds"`
	Runs       map[string][]*runResult `json:"runs"`
	Traced     *runResult              `json:"traced"`
}

// commit is the revision under test: run.sh passes it in, because a checkout
// that is not a git repository has none to stamp into the binary.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func printMetrics(r *runResult) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%-18s %-34s %14.6g %-6s n=%d\n", r.Workload, n, m.Value, m.Unit, m.Samples)
	}
	fmt.Printf("%-18s %-34s %14.6g %-6s attempted=%d failed=%d\n", r.Workload, "fail_ratio",
		ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.Attempted, r.Failed)
}

// allMain runs the four workloads `repeat` times each, then the traced run,
// prints every metric and records the lot as a baseline.
func allMain(seed int64, seconds, repeat int) error {
	if runtime.GOMAXPROCS(0) < 2 {
		// ROADMAP aim 1: a number recorded on one core is not a measurement
		// of a concurrent path.
		return errors.New("refusing to record a baseline with GOMAXPROCS < 2")
	}
	out := resultsFile{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Seed: seed, Seconds: seconds, Runs: map[string][]*runResult{},
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d\n", out.NProc, out.GOMAXPROCS, out.Go, out.Commit, seed, seconds)
	for i := 0; i < repeat; i++ {
		for _, spec := range workloads {
			res, err := runWorkload(spec, seed, seconds)
			if err != nil {
				return err
			}
			printMetrics(res)
			out.Runs[spec.name] = append(out.Runs[spec.name], res)
		}
	}
	traced, err := runTraced(workloads[0], seed)
	if err != nil {
		return err
	}
	traced.Workload = "traced"
	printMetrics(traced)
	out.Traced = traced
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(resultsPath), 0o755); err != nil {
		return err
	}
	return os.WriteFile(resultsPath, append(data, '\n'), 0o644)
}

// agreeMain compares results file b against a: for every workload and every
// end-to-end metric, b's median may be worse than a's by at most the metric's
// bound. Where either side's own runs spread wider than the bound the metric
// is unresolved: the files neither agree nor disagree on it.
func agreeMain(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench -agree a.json b.json")
	}
	var files [2]resultsFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := files[0], files[1]
	worse, unresolved := 0, 0
	for _, spec := range workloads {
		ra, rb := a.Runs[spec.name], b.Runs[spec.name]
		if len(ra) == 0 || len(rb) == 0 {
			return fmt.Errorf("%s: missing from one of the files", spec.name)
		}
		for _, ms := range endToEnd {
			va, vb := values(ra, ms.Name), values(rb, ms.Name)
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			if ms.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case tooWide(va, ms.Bound) || tooWide(vb, ms.Bound):
				verdict = "UNRESOLVED (same-code spread exceeds the bound)"
				unresolved++
			case change > ms.Bound:
				verdict = "WORSE"
				worse++
			}
			fmt.Printf("%-18s %-20s a=%-12.6g b=%-12.6g worse by %+7.2f%% (bound %.0f%%) %s\n",
				spec.name, ms.Name, ma, mb, 100*change, 100*ms.Bound, verdict)
		}
		fa, fb := failRatio(ra), failRatio(rb)
		verdict := "ok"
		if fb > fa {
			verdict = "WORSE"
			worse++
		}
		fmt.Printf("%-18s %-20s a=%-12.6g b=%-12.6g (may not rise) %s\n", spec.name, "fail_ratio", fa, fb, verdict)
	}
	if worse > 0 || unresolved > 0 {
		return fmt.Errorf("%d metrics worse, %d unresolved", worse, unresolved)
	}
	return nil
}

func values(runs []*runResult, metric string) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// tooWide says whether same-code runs spread wider than bound; fewer than
// four runs cannot say.
func tooWide(xs []float64, bound float64) bool {
	return len(xs) >= 4 && spread(xs) > bound
}

func failRatio(runs []*runResult) float64 {
	att, fail := 0, 0
	for _, r := range runs {
		att, fail = att+r.Attempted, fail+r.Failed
	}
	return ratio(float64(fail), float64(att))
}
