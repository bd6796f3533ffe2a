// Command benchcheck gates the performance trajectory: it compares a
// fresh `make bench` output against the committed BENCH_baseline.json
// and fails when the datapath regresses.
//
//	benchcheck -baseline BENCH_baseline.json -fresh BENCH_experiments.json
//
// The gated numbers are the machine-independent ones. Pps/core and
// Gbps/core come from simulated time, so a drop beyond the tolerance
// (default 10%) means the performance model itself got slower.
// Allocs/packet is gated to "no increase" (modulo a small epsilon for
// runtime background noise) — the zero-alloc steady state is a design
// invariant, and even setup allocations are deterministic. Wall-clock
// per exhibit is reported but never gated: CI runners are too noisy
// for it to mean anything.
package main

import (
	"flag"
	"fmt"
	"os"

	"packetmill/internal/benchfile"
)

func main() {
	var (
		basePath  = flag.String("baseline", "BENCH_baseline.json", "committed baseline")
		freshPath = flag.String("fresh", "BENCH_experiments.json", "fresh `make bench` output")
		tol       = flag.Float64("tol", 0.10, "allowed fractional pps/core regression")
		allocEps  = flag.Float64("alloc-eps", 0.01, "allowed allocs/packet increase (runtime noise)")
	)
	flag.Parse()

	base, err := benchfile.Load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
	fresh, err := benchfile.Load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}

	freshDP := map[string]benchfile.Datapath{}
	for _, e := range fresh.Datapath {
		freshDP[e.Name] = e
	}
	failed := false
	for _, b := range base.Datapath {
		f, ok := freshDP[b.Name]
		if !ok {
			fmt.Printf("FAIL %-24s missing from fresh bench\n", b.Name)
			failed = true
			continue
		}
		status := "ok  "
		switch {
		case f.PpsPerCore < b.PpsPerCore*(1-*tol):
			status, failed = "FAIL", true
		case f.AllocsPerPkt > b.AllocsPerPkt+*allocEps:
			status, failed = "FAIL", true
		}
		fmt.Printf("%s %-24s pps/core %11.0f -> %11.0f (%+5.1f%%)  allocs/pkt %6.3f -> %6.3f\n",
			status, b.Name, b.PpsPerCore, f.PpsPerCore,
			100*(f.PpsPerCore-b.PpsPerCore)/b.PpsPerCore,
			b.AllocsPerPkt, f.AllocsPerPkt)
	}

	// Cross-entry invariant: profile-guided milling must never lose to the
	// static mill it extends. Compared within the fresh run (not against
	// the baseline) so the rule holds on any machine-independent drift.
	// The relative epsilon forgives last-ULP summation-order noise when
	// both builds saturate the same bottleneck and genuinely tie.
	if fused, ok := freshDP["router-milled-fused"]; ok {
		if static, ok := freshDP["router-milled"]; ok {
			if fused.PpsPerCore < static.PpsPerCore*(1-1e-9) {
				fmt.Printf("FAIL %-24s pps/core %11.0f < static router-milled %11.0f\n",
					"router-milled-fused", fused.PpsPerCore, static.PpsPerCore)
				failed = true
			} else {
				fmt.Printf("ok   %-24s pps/core %11.0f >= static router-milled %11.0f (%+5.1f%%)\n",
					"router-milled-fused", fused.PpsPerCore, static.PpsPerCore,
					100*(fused.PpsPerCore-static.PpsPerCore)/static.PpsPerCore)
			}
		}
	}

	// Wall-clock trajectory: informational only.
	freshEx := map[string]benchfile.Exhibit{}
	for _, e := range fresh.Exhibits {
		freshEx[e.ID] = e
	}
	for _, b := range base.Exhibits {
		if f, ok := freshEx[b.ID]; ok && b.WallMS > 0 {
			fmt.Printf("info %-24s wall %8.0f ms -> %8.0f ms (not gated)\n", b.ID, b.WallMS, f.WallMS)
		}
	}

	if failed {
		fmt.Println("benchcheck: datapath regression against baseline")
		os.Exit(1)
	}
	fmt.Println("benchcheck: within baseline")
}
