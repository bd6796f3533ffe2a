// Repeated runs — the measurement-methodology half of the harness. The
// paper repeats each test five times and reports medians (via NPF, which
// also randomizes the environment between runs to dodge measurement
// bias, §5); RunRepeatedGraph mirrors that by re-running with varied
// seeds — which perturbs traffic interleavings and flow layouts — and
// reporting the median-throughput run.
package testbed

import (
	"fmt"
	"sort"

	"packetmill/internal/click"
)

// Spread summarizes run-to-run variation.
type Spread struct {
	MinGbps, MaxGbps float64
	// Gbps holds each run's throughput, sorted ascending.
	Gbps []float64
}

// RunRepeatedGraph re-runs the parsed (possibly transformed) graph n
// times with varied seeds and returns the median-throughput run's full
// Result plus the spread.
func RunRepeatedGraph(g *click.Graph, o Options, n int) (*Result, Spread, error) {
	if n < 1 {
		n = 1
	}
	o = o.withDefaults()
	type run struct {
		res  *Result
		gbps float64
	}
	runs := make([]run, 0, n)
	for i := 0; i < n; i++ {
		oi := o
		oi.Seed = o.Seed + uint64(i)*0x9e37
		res, err := RunGraph(g, oi)
		if err != nil {
			return nil, Spread{}, fmt.Errorf("testbed: repeat %d: %w", i, err)
		}
		runs = append(runs, run{res: res, gbps: res.Gbps()})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].gbps < runs[j].gbps })
	sp := Spread{MinGbps: runs[0].gbps, MaxGbps: runs[len(runs)-1].gbps}
	for _, r := range runs {
		sp.Gbps = append(sp.Gbps, r.gbps)
	}
	return runs[len(runs)/2].res, sp, nil
}
