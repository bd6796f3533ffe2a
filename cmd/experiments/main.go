// Command experiments regenerates the paper's tables and figures on the
// simulated testbed and writes one TSV per exhibit.
//
//	experiments -list
//	experiments -run fig4 -scale 0.5
//	experiments -run all -out results/
//	experiments -run all -parallel 8
//	experiments -run all -scale 0.2 -bench BENCH_experiments.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"packetmill/internal/benchfile"
	"packetmill/internal/exp"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		run        = flag.String("run", "all", "experiment id to run, or 'all'")
		scale      = flag.Float64("scale", 1.0, "packet-count scale (0,1]")
		out        = flag.String("out", "", "directory for result files (default: stdout)")
		asJSON     = flag.Bool("json", false, "emit tables as JSON (rows keyed by column) instead of TSV")
		parallel   = flag.Int("parallel", exp.DefaultWorkers(), "worker-pool size for run units (1 = serial)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchOut   = flag.String("bench", "", "write a JSON benchmark baseline (wall-clock and allocations per exhibit) to this file and suppress table output")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var todo []exp.Experiment
	if *run == "all" {
		todo = exp.All()
	} else {
		e, ok := exp.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (try -list)\n", *run)
			os.Exit(1)
		}
		todo = []exp.Experiment{e}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}

	bench := benchfile.File{Scale: *scale, Parallel: *parallel}
	totalStart := time.Now()
	for _, e := range todo {
		start := time.Now()
		var memBefore runtime.MemStats
		if *benchOut != "" {
			runtime.ReadMemStats(&memBefore)
		}
		fmt.Fprintf(os.Stderr, "running %s — %s...\n", e.ID, e.Title)
		tables := e.RunParallel(*scale, *parallel)
		wall := time.Since(start)
		if *benchOut != "" {
			var memAfter runtime.MemStats
			runtime.ReadMemStats(&memAfter)
			bench.Exhibits = append(bench.Exhibits, benchfile.Exhibit{
				ID:        e.ID,
				WallMS:    float64(wall.Microseconds()) / 1e3,
				Allocs:    memAfter.Mallocs - memBefore.Mallocs,
				AllocsMiB: float64(memAfter.TotalAlloc-memBefore.TotalAlloc) / (1 << 20),
			})
		}
		for _, t := range tables {
			if *benchOut != "" && *out == "" {
				continue // baseline mode: numbers, not tables
			}
			var body []byte
			ext := ".tsv"
			if *asJSON {
				b, err := t.JSON()
				if err != nil {
					fatal(err)
				}
				body, ext = append(b, '\n'), ".json"
			} else {
				body = []byte(t.TSV())
			}
			if *out == "" {
				os.Stdout.Write(body)
				fmt.Println()
				continue
			}
			path := filepath.Join(*out, t.ID+ext)
			if err := os.WriteFile(path, body, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "  wrote %s\n", path)
		}
		fmt.Fprintf(os.Stderr, "  done in %v\n", wall.Round(time.Millisecond))
	}

	if *benchOut != "" {
		dp, err := datapathBench()
		if err != nil {
			fatal(err)
		}
		bench.Datapath = dp
		bench.TotalMS = float64(time.Since(totalStart).Microseconds()) / 1e3
		b, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*benchOut, append(b, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d exhibits, %.0f ms total)\n",
			*benchOut, len(bench.Exhibits), bench.TotalMS)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}
