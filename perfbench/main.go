// Command perfbench is the repository's host-time benchmark: it measures
// what the Go datapath costs on the host, end to end and per layer, by
// timing calls into the public seams (core.Pipeline, testbed.RunEngines
// and ServeWire, nic.Port, trafficgen.Source, conntrack.Shard,
// cache.Hierarchy). It edits no program code.
//
//	go build -o perfbench . && ./perfbench --workload sim-router --seed 1 --seconds 10 --trace 0
//
// --workload is sim-router, sim-nat-churn, wire-mirror, or all. --trace 0
// prints the end-to-end metrics; --trace 1 is the traced run, which
// prints the per-layer metrics and writes its spans to --spans. The last
// line of standard output is one JSON object (correct, attempted,
// failed, metrics). The exit code is 1 when an output check failed. See
// README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

var workloads = []string{"sim-router", "sim-nat-churn", "wire-mirror"}

// hardLimit is the last-resort bound on a whole process: past it the
// process dumps every goroutine's stack and exits without a result.
const hardLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "sim-router, sim-nat-churn, wire-mirror, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Float64("seconds", 10, "length of a workload's timed phases")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	spans := flag.String("spans", "", "file the traced run writes its spans to (none when empty)")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !known(n) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v or all)\n", n, workloads)
			os.Exit(2)
		}
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	limit := time.AfterFunc(hardLimit, func() {
		dumpStacks(fmt.Sprintf("process bound of %v expired", hardLimit))
		os.Exit(3)
	})
	defer limit.Stop()

	traced := *traceFlag == 1
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	var reps []*report
	for _, n := range names {
		path := *spans
		if path != "" && len(names) > 1 {
			path = fmt.Sprintf("%s.%s", path, n)
		}
		r, err := runWorkload(n, *seed, *seconds/float64(len(names)), traced, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		printReport(os.Stdout, r, defs)
		reps = append(reps, r)
	}
	line, err := resultJSON(reps, defs, len(reps) > 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	for _, r := range reps {
		if !r.correct() {
			os.Exit(1)
		}
	}
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

func runWorkload(name string, seed uint64, seconds float64, traced bool, spans string) (*report, error) {
	switch name {
	case "sim-router":
		return runSimWorkload(simRouter, seed, seconds, traced, spans)
	case "sim-nat-churn":
		return runSimWorkload(simNATChurn, seed, seconds, traced, spans)
	default:
		return runWireWorkload(seed, seconds, traced, spans)
	}
}
