// Package benchfile is the schema of the bench JSON that `experiments
// -bench` writes (BENCH_experiments.json, BENCH_baseline.json) and
// `benchcheck` gates.
package benchfile

import (
	"encoding/json"
	"fmt"
	"os"
)

// File is one bench run: the gated datapath rows plus per-exhibit
// wall-clock and allocation figures.
type File struct {
	Scale    float64    `json:"scale"`
	Parallel int        `json:"parallel"`
	TotalMS  float64    `json:"total_ms"`
	Datapath []Datapath `json:"datapath"`
	Exhibits []Exhibit  `json:"exhibits"`
}

// Datapath is one canonical forwarding loop's row. PpsPerCore and
// GbpsPerCore come from simulated time, so they are exactly reproducible
// across machines — a regression means the performance model changed,
// not that CI drew a slow runner. AllocsPerPkt is the whole run's heap
// allocations (setup included) over the frames offered; setup amortizes
// to a deterministic constant, so any per-packet growth is a real
// allocation creeping in.
type Datapath struct {
	Name         string  `json:"name"`
	PpsPerCore   float64 `json:"pps_per_core"`
	GbpsPerCore  float64 `json:"gbps_per_core"`
	Packets      int     `json:"packets"`
	AllocsPerPkt float64 `json:"allocs_per_packet"`
}

// Exhibit is one exhibit's row. Allocs is the heap-allocation count for
// the whole exhibit (per-packet steady-state allocations are separately
// gated to zero by the testbed's AllocsPerRun tests — this counter
// tracks the setup-and-sweep total over time).
type Exhibit struct {
	ID        string  `json:"id"`
	WallMS    float64 `json:"wall_ms"`
	Allocs    uint64  `json:"allocs"`
	AllocsMiB float64 `json:"allocs_mib"`
}

// Load reads a bench file.
func Load(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
