package main

// Frozen constants. They are calibrated once on the seed commit and never
// read from the host, so a parent commit and a change always run the same
// load on the same data.
const (
	nCustomers         = 2000
	nProducts          = 500
	ordersPerCustomer  = 3
	friendsPerCustomer = 4
	maxLinesPerOrder   = 4
	nEvents            = 20000
	nSessions          = 50000
	nProfiles          = 50000
)

const (
	zipfTheta   = 0.99
	nClients    = 2  // client goroutines, one keep-alive connection each
	nParamSets  = 64 // bindings per query class
	q1sqlWindow = 200

	// Seeds. devSeed is for development; heldOutSeed is for checking a claim
	// on inputs that were not looked at while the change was written.
	devSeed     = 1
	heldOutSeed = 20170321
)

// Run shape. The measured window is --seconds (BENCHMARK.json: run_seconds).
const (
	runSeconds       = 15  // the default --seconds, and BENCHMARK.json's run_seconds
	warmupSeconds    = 2   // load before the crash-image check
	rewarmSeconds    = 1   // load after it, before the measured window
	setupRepeats     = 3   // setup_s is the median of this many set-ups
	recoveryRepeats  = 5   // recovery_s is the median of this many recoveries
	writerPacePerSec = 100 // scan_under_write's open-loop writer
)

// Reports, relative to the checkout's root.
const (
	resultsPath = "bench/out/results.json"
	tracePath   = "bench/out/trace.jsonl"
)
