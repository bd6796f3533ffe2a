package main

import (
	"fmt"
	"runtime"

	"packetmill/internal/benchfile"
	"packetmill/internal/click"
	"packetmill/internal/core"
	"packetmill/internal/nf"
	"packetmill/internal/overload"
	"packetmill/internal/testbed"
	"packetmill/internal/trafficgen"
)

// datapathBench measures the canonical datapaths the regression gate
// tracks: the plain mirror under both metadata models, the milled
// router, and the mirror with the overload control plane armed (the
// control plane must stay free when the core is healthy).
func datapathBench() ([]benchfile.Datapath, error) {
	const packets = 50000
	cases := []struct {
		name     string
		config   string
		model    click.MetadataModel
		mill     bool
		profiled bool
		freq     float64
		cores    int
		overload *overload.Config
		traffic  func(nicID int, cfg trafficgen.Config) trafficgen.Source
	}{
		{name: "mirror-copying", config: nf.Mirror(0, 32), model: click.Copying},
		{name: "mirror-xchange", config: nf.Mirror(0, 32), model: click.XChange},
		// The router rows run CPU-bound (1.6 GHz): at 2.3 both milled
		// builds hit the NIC cap and pps/core stops reflecting codegen.
		{name: "router-milled", config: nf.Router(32), model: click.XChange,
			mill: true, freq: 1.6},
		// The feedback loop closed: static passes, then a short profiling
		// run feeds element fusion, classifier compilation, and hot
		// layout. Gated ≥ router-milled by benchcheck.
		{name: "router-milled-fused", config: nf.Router(32), model: click.XChange,
			mill: true, profiled: true, freq: 1.6},
		{name: "mirror-xchange-overload", config: nf.Mirror(0, 32), model: click.XChange,
			overload: &overload.Config{Policy: overload.PolicyTailDrop}},
		// The NAT on its conntrack shard under flow churn: every packet
		// pays the flow-table lookup, new flows pay the insert + port
		// allocation, and the timer wheel sweeps inline — the state
		// plane's per-packet cost is gated alongside the stateless paths.
		{name: "nat-conntrack", config: nf.NATRouter(32), model: click.XChange,
			traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
				return trafficgen.NewChurn(trafficgen.ChurnConfig{
					Config: cfg, Concurrent: 4096, FlowPackets: 8,
				})
			}},
		// The per-core datapaths must not dilute: offered load scales with
		// the core count (100 Gbps per core), so pps/core at N cores is
		// gated against the same 10% band as the single-core rows.
		{name: "mirror-xchange-2core", config: nf.Mirror(0, 32), model: click.XChange, cores: 2},
		{name: "mirror-xchange-4core", config: nf.Mirror(0, 32), model: click.XChange, cores: 4},
	}
	var out []benchfile.Datapath
	for _, c := range cases {
		p, err := core.Parse(c.config)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", c.name, err)
		}
		p.Model = c.model
		if c.mill {
			if err := p.Mill(); err != nil {
				return nil, fmt.Errorf("bench %s: %w", c.name, err)
			}
		}
		freq := c.freq
		if freq == 0 {
			freq = 2.3
		}
		if c.profiled {
			prof, err := p.CaptureProfile(testbed.Options{
				FreqGHz: freq, RateGbps: 100, Packets: packets / 10, Seed: 1,
			})
			if err != nil {
				return nil, fmt.Errorf("bench %s: profile: %w", c.name, err)
			}
			if err := p.MillProfileGuided(prof); err != nil {
				return nil, fmt.Errorf("bench %s: %w", c.name, err)
			}
		}
		cores := c.cores
		if cores == 0 {
			cores = 1
		}
		nPackets := packets * cores
		o := testbed.Options{
			FreqGHz: freq, RateGbps: 100 * float64(cores), Packets: nPackets,
			Seed: 1, Cores: cores, Overload: c.overload, Traffic: c.traffic,
		}
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := p.Run(o)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", c.name, err)
		}
		out = append(out, benchfile.Datapath{
			Name:         c.name,
			PpsPerCore:   res.Mpps() * 1e6 / float64(cores),
			GbpsPerCore:  res.Gbps() / float64(cores),
			Packets:      nPackets,
			AllocsPerPkt: float64(after.Mallocs-before.Mallocs) / float64(nPackets),
		})
	}
	return out, nil
}
