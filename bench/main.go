// Command bench is unidb's benchmark of record: four UniBench-shaped
// workloads driven through the front doors a user has (the HTTP server and
// the embedded transaction API), a set of end-to-end metrics measured with
// tracing off, and a separate traced run that decomposes the same operations
// layer by layer. See README.md.
//
// The driver form, named by BENCHMARK.json:
//
//	bench --workload W --seed N --seconds S --trace 0|1
//
// prints one JSON object as the last line of standard output. The other forms:
//
//	bench -all [-seed N] [-repeat K]   all workloads, then the traced run; writes bench/out/results.json
//	bench -agree a.json b.json         compare two results files under each metric's bound
//	bench -spec                        print BENCHMARK.json as this package defines it
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (driver form)")
		seed     = flag.Int64("seed", devSeed, "seed for the dataset and the operation streams")
		seconds  = flag.Int("seconds", runSeconds, "length of the measured window of an untraced run")
		trace    = flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
		all      = flag.Bool("all", false, "run every workload, then the traced run, and write "+resultsPath)
		repeat   = flag.Int("repeat", 1, "with -all: runs per workload")
		agree    = flag.Bool("agree", false, "compare two results files: -agree a.json b.json")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as the tables in this package define it")
	)
	flag.Parse()
	var err error
	switch {
	case *spec:
		var data []byte
		if data, err = json.MarshalIndent(specJSON(), "", "  "); err == nil {
			fmt.Println(string(data))
		}
	case *agree:
		err = agreeMain(flag.Args())
	case *all:
		err = allMain(*seed, *seconds, *repeat)
	case *workload != "":
		err = driverMain(*workload, *seed, *seconds, *trace == 1)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverMain is the form the driver calls: one workload, one JSON line.
func driverMain(name string, seed int64, seconds int, traced bool) error {
	spec, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed=%d seconds=%d trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		name, seed, seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var res *runResult
	var err error
	if traced {
		res, err = runTraced(spec, seed)
	} else {
		res, err = runWorkload(spec, seed, seconds)
	}
	if err != nil {
		return err
	}
	type outMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]outMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]outMetric{}}
	for name, m := range res.Metrics {
		out.Metrics[name] = outMetric{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
