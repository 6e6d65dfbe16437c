// Package repro is the root of the unidb reproduction of Lu & Holubová,
// "Multi-model Data Management: What's New and What's Next?" (EDBT 2017).
//
// The public API lives in repro/unidb. The benchmark of record is the
// separate module in bench/ (run it with bench/run.sh); the index-taxonomy
// microbenchmarks live beside the packages they measure. DESIGN.md indexes
// every reproduced table and figure, and EXPERIMENTS.md records the
// measurements.
package repro
