package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/unidb"
)

// measured is one metric value with the number of samples behind it.
type measured struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// scratchRoot is where a run keeps its databases: inside the checkout, in the
// build directory .gitignore already names.
func scratchRoot() (string, error) {
	root := filepath.Join(".bench_build", "data-"+strconv.Itoa(os.Getpid()))
	return root, os.MkdirAll(root, 0o755)
}

// prepared is a loaded environment plus the set-up and recovery timings that
// producing it yielded.
type prepared struct {
	e         *env
	setupS    []float64
	recoveryS []float64
	checked   int
	wrong     int
}

// prepare sets the database up `setups` times and keeps the last, then
// recovers a crash image of it `recoveries` times, verifying each against the
// model: setup_s and recovery_s are the medians. The collector runs before
// each timed section so that none inherits the garbage of the last.
func prepare(root string, m *model, setups, recoveries int) (*prepared, error) {
	p := &prepared{}
	for i := 0; i < setups; i++ {
		if p.e != nil {
			if err := p.e.close(); err != nil {
				return nil, fmt.Errorf("close: %w", err)
			}
		}
		runtime.GC()
		e, took, err := setup(root, m)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		p.e = e
		p.setupS = append(p.setupS, took.Seconds())
	}
	for i := 0; i < recoveries; i++ {
		runtime.GC()
		rec, checked, wrong, err := recoverImage(root, p.e, m.verifyLoaded)
		if err != nil {
			p.e.close()
			return nil, err
		}
		p.recoveryS = append(p.recoveryS, rec.Seconds())
		p.checked += checked
		p.wrong += wrong
	}
	return p, nil
}

// runWorkload runs one workload untraced and returns its end-to-end metrics.
func runWorkload(spec workloadSpec, seed int64, seconds int) (*runResult, error) {
	root, err := scratchRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	began := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "bench: %6.1fs %s\n", time.Since(began).Seconds(), name)
	}
	m := generate(seed)
	p, err := prepare(root, m, setupRepeats, recoveryRepeats)
	if err != nil {
		return nil, err
	}
	e := p.e
	defer e.close()
	heap := heapMB()
	phase("set up and recovered")

	rc := newRunCtx(e, m)
	ws := spec.workers(rc)
	defer func() {
		for _, w := range ws {
			w.close()
		}
	}()
	// post checks the state the acknowledged writes must have left behind.
	post := func(db *unidb.Database) (checked, wrong int) {
		for _, w := range ws {
			c, x := w.verify(db)
			checked, wrong = checked+c, wrong+x
		}
		if len(rc.committed) > 0 {
			c, x := rc.verifyNewOrders(db)
			checked, wrong = checked+c, wrong+x
		}
		return checked, wrong
	}
	// Warm up; then, with the load stopped, check what the warm-up's
	// acknowledged writes left: on the live database, and on a crash image of
	// it reopened from a file copy taken without Close. The image is taken
	// here and not at the end so that replaying it stays cheap on the
	// workload that commits twenty thousand transactions a second.
	warm, err := measure(e, ws, 0, warmupSeconds*time.Second)
	if err != nil {
		return nil, err
	}
	checked, wrong := post(e.db)
	_, c2, x2, err := recoverImage(root, e, post)
	if err != nil {
		return nil, err
	}
	checked, wrong = checked+c2+p.checked+warm.attempted, wrong+x2+p.wrong+warm.failed
	phase("warmed up, crash image verified")

	win, err := measure(e, ws, rewarmSeconds*time.Second, time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	phase("measured")
	c3, x3 := post(e.db)
	checked, wrong = checked+c3, wrong+x3
	phase("end state verified")

	res := &runResult{
		Workload:  spec.name,
		Seed:      seed,
		Attempted: win.attempted + checked,
		Failed:    win.failed + wrong,
		Metrics:   map[string]measured{},
	}
	res.Correct = res.Failed == 0
	if win.ops == 0 || win.writesOK == 0 {
		return nil, fmt.Errorf("%s: no successful operations in the window (%d attempted, %d failed)", spec.name, win.attempted, win.failed)
	}
	ops := float64(win.ops)
	res.Metrics["ops_per_s"] = measured{ops / win.seconds, "1/s", win.ops}
	// The read tail is p90, the highest percentile every workload's sample
	// count supports. The write tail is not gated: it is a per-layer metric
	// (<workload>.write_p90_ms), because on the two workloads whose writes
	// wait behind readers it sits where the lock waits begin and same-code
	// runs spread past any bound.
	for _, g := range []struct {
		name string
		xs   []float64
		q    float64
	}{{"read_p50_ms", win.read, 0.50}, {"read_p90_ms", win.read, 0.90}, {"write_p50_ms", win.write, 0.50}} {
		v, err := percentile(g.xs, g.q)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %d samples: %w (run longer)", spec.name, g.name, len(g.xs), err)
		}
		res.Metrics[g.name] = measured{v, "ms", len(g.xs)}
	}
	res.Metrics["cpu_ms_per_op"] = measured{win.cpuMs / ops, "ms", win.ops}
	res.Metrics["allocs_per_op"] = measured{win.mallocs / ops, "count", win.ops}
	res.Metrics["wal_bytes_per_write"] = measured{win.walBytes / float64(win.writesOK), "bytes", win.writesOK}
	res.Metrics["heap_mb"] = measured{heap, "MB", 1}
	res.Metrics["setup_s"] = measured{median(p.setupS), "s", len(p.setupS)}
	res.Metrics["recovery_s"] = measured{median(p.recoveryS), "s", len(p.recoveryS)}
	return res, nil
}
