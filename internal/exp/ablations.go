// Ablation experiments for the design choices DESIGN.md calls out:
// exchange-pool size, field-reordering criterion, BURST size, and the
// DDIO window width. These go beyond the paper's figures but probe the
// same mechanisms.
package exp

import (
	"fmt"

	"packetmill/internal/click"
	"packetmill/internal/core"
	"packetmill/internal/layout"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/testbed"
)

func init() {
	register("abl-pool", "ablation: X-Change descriptor-pool size vs throughput", ablPool)
	register("abl-vector", "ablation: scalar vs vectorized PMD (compressed CQEs)", ablVector)
	register("abl-reorder", "ablation: metadata reorder criterion (count vs first-access) and LTO", ablReorder)
	register("abl-burst", "ablation: BURST size vs throughput & latency", ablBurst)
	register("abl-ddio", "ablation: DDIO window width vs throughput", ablDDIO)
}

// ablPool sweeps the X-Change descriptor pool size: the paper argues a
// small pool (≈ burst + queued) keeps metadata cache-resident; a huge pool
// degenerates toward mbuf-style cycling.
func ablPool(scale float64) *Plan {
	t := &Table{
		ID:      "abl-pool",
		Title:   "X-Change descriptor-pool size × recycling order (forwarder @1.2 GHz, 64-B frames)",
		Columns: []string{"recycling", "pool_descriptors", "throughput_gbps", "llc_loads_per_pkt"},
	}
	p := &Plan{Tables: []*Table{t}}
	for _, fifo := range []bool{false, true} {
		name := "lifo-warm"
		if fifo {
			name = "fifo-cycling"
		}
		for _, size := range []int{33, 64, 512, 4096, 32768} {
			p.Unit(func(u *U) {
				// Uncap the NIC so the descriptors' cache behaviour is the
				// limiter. Per-unit so units never share the config struct.
				cfg := nic.DefaultConfig("uncapped")
				cfg.MaxQueuePPS = 0
				o := campusOpts(1.2, 100, pkts(12000, scale))
				o.FixedSize = 64 // pps-bound: the descriptors are the workload
				o.Model = click.XChange
				o.DescPool = size
				o.DescPoolFIFO = fifo
				o.NICConfig = &cfg
				o.Seed = u.Seed
				res, err := testbed.Run(nf.Forwarder(0, 32), o)
				if err != nil {
					panic(fmt.Sprintf("abl-pool %s/%d: %v", name, size, err))
				}
				perPkt := 0.0
				if res.Packets > 0 {
					perPkt = float64(res.Counters.LLCLoads) / float64(res.Packets)
				}
				u.Add(name, fmt.Sprint(size), f1(res.Gbps()), f2(perPkt))
			})
		}
	}
	return p
}

// ablReorder compares LTO off/on and the two reordering criteria on the
// Copying-model router (§4.1's "LTO & structure reordering").
func ablReorder(scale float64) *Plan {
	t := &Table{
		ID:      "abl-reorder",
		Title:   "LTO & metadata reordering (router @3 GHz, Copying model)",
		Columns: []string{"build", "throughput_gbps", "median_latency_us"},
	}
	p := &Plan{Tables: []*Table{t}}
	unit := func(name string, noLTO bool, crit *layout.SortCriterion) {
		p.Unit(func(u *U) {
			o := campusOpts(3.0, 100, pkts(12000, scale))
			o.Model = click.Copying
			o.NoLTO = noLTO
			o.Seed = u.Seed
			pp, err := core.Parse(nf.Router(32))
			if err != nil {
				panic(err)
			}
			pp.Model = click.Copying
			if crit != nil {
				profOpts := o
				profOpts.Packets = pkts(4000, scale)
				if err := pp.ReorderMetadata(profOpts, *crit); err != nil {
					panic(fmt.Sprintf("abl-reorder %s: %v", name, err))
				}
			}
			res, err := pp.Run(o)
			if err != nil {
				panic(fmt.Sprintf("abl-reorder %s: %v", name, err))
			}
			u.Add(name, f1(res.Gbps()), f1(res.Latency.Quantile(0.5)/1e3))
		})
	}
	byCount := layout.ByAccessCount
	byOrder := layout.ByFirstAccess
	unit("no-lto", true, nil)
	unit("lto", false, nil)
	unit("lto+reorder-count", false, &byCount)
	unit("lto+reorder-order", false, &byOrder)
	return p
}

// ablBurst sweeps the BURST constant of the I/O elements.
func ablBurst(scale float64) *Plan {
	t := &Table{
		ID:      "abl-burst",
		Title:   "BURST size (router @2.3 GHz, PacketMill build)",
		Columns: []string{"burst", "throughput_gbps", "p99_us"},
	}
	p := &Plan{Tables: []*Table{t}}
	for _, burst := range []int{1, 4, 8, 16, 32, 64, 128} {
		p.Unit(func(u *U) {
			o := campusOpts(2.3, 100, pkts(12000, scale))
			o.Seed = u.Seed
			res, err := runPacketMill(nf.Router(burst), o)
			if err != nil {
				panic(fmt.Sprintf("abl-burst %d: %v", burst, err))
			}
			u.Add(fmt.Sprint(burst), f1(res.Gbps()), f1(res.Latency.Quantile(0.99)/1e3))
		})
	}
	return p
}

// ablDDIO sweeps the DDIO window width (the IIO LLC WAYS register the
// paper sets to 8 bits, citing [25]).
func ablDDIO(scale float64) *Plan {
	t := &Table{
		ID:      "abl-ddio",
		Title:   "DDIO window width (router @2.3 GHz, PacketMill build)",
		Columns: []string{"ddio_ways", "throughput_gbps", "llc_miss_pct"},
	}
	p := &Plan{Tables: []*Table{t}}
	for _, ways := range []int{1, 2, 4, 8, 11} {
		p.Unit(func(u *U) {
			o := campusOpts(2.3, 100, pkts(12000, scale))
			cfg := nic.DefaultConfig("ddio")
			o.NICConfig = &cfg
			o.DDIOWays = ways
			o.Seed = u.Seed
			res, err := runPacketMill(nf.Router(32), o)
			if err != nil {
				panic(fmt.Sprintf("abl-ddio %d: %v", ways, err))
			}
			missPct := 0.0
			if res.Counters.LLCLoads > 0 {
				missPct = float64(res.Counters.LLCLoadMisses) / float64(res.Counters.LLCLoads) * 100
			}
			u.Add(fmt.Sprint(ways), f1(res.Gbps()), f1(missPct))
		})
	}
	return p
}

// ablVector compares the scalar and vectorized (compressed-CQE) receive
// paths — the paper's stated future work for X-Change, available here for
// the mbuf-based models.
func ablVector(scale float64) *Plan {
	t := &Table{
		ID:      "abl-vector",
		Title:   "scalar vs vectorized PMD (forwarder @1.2 GHz, 64-B frames)",
		Columns: []string{"model", "pmd", "throughput_gbps"},
	}
	p := &Plan{Tables: []*Table{t}}
	for _, model := range []click.MetadataModel{click.Copying, click.Overlaying} {
		for _, vec := range []bool{false, true} {
			name := "scalar"
			if vec {
				name = "vectorized"
			}
			p.Unit(func(u *U) {
				cfg := nic.DefaultConfig("uncapped")
				cfg.MaxQueuePPS = 0
				o := campusOpts(1.2, 100, pkts(10000, scale))
				o.FixedSize = 64
				o.Model = model
				o.VectorizedPMD = vec
				o.NICConfig = &cfg
				o.Seed = u.Seed
				res, err := testbed.Run(nf.Forwarder(0, 32), o)
				if err != nil {
					panic(fmt.Sprintf("abl-vector %v/%s: %v", model, name, err))
				}
				u.Add(model.String(), name, f1(res.Gbps()))
			})
		}
	}
	return p
}
