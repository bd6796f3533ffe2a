// Experiments: Figure 7 (WorkPackage surface), Figure 8 (IDS+router),
// Figure 9 (memory-footprint slice), Figure 10 (multicore NAT),
// Figure 11a/11b (framework comparison).
//
// Exhibits build Plans of independent units in the old serial loop
// order. Paired comparisons (vanilla vs PacketMill in one table cell)
// stay in one unit so both builds see the same derived seed and thus the
// same traffic.
package exp

import (
	"fmt"

	"packetmill/internal/bess"
	"packetmill/internal/click"
	"packetmill/internal/l2fwd"
	"packetmill/internal/layout"
	"packetmill/internal/netpkt"
	"packetmill/internal/nf"
	"packetmill/internal/stats"
	"packetmill/internal/testbed"
	"packetmill/internal/vpp"
)

func init() {
	register("fig7", "WorkPackage improvement surface (W × S, N ∈ {1,5}) @2.3 GHz", fig7)
	register("fig8", "IDS+router: throughput & median latency vs frequency", fig8)
	register("fig9", "memory-footprint slice (N=1, W=4): Gbps, LLC miss %, LLC loads", fig9)
	register("fig10", "multicore NAT: throughput vs cores @2.3 GHz, 1024-B packets", fig10)
	register("fig11a", "DPDK apps vs FastClick/PacketMill per packet size @1.2 GHz", fig11a)
	register("fig11b", "framework comparison per packet size @1.2 GHz", fig11b)
}

// fig7 sweeps WorkPackage's compute (W) and memory (S) intensity for
// N ∈ {1, 5} accesses per packet and reports PacketMill's improvement.
func fig7(scale float64) *Plan {
	t := &Table{
		ID:      "fig7",
		Title:   "PacketMill improvement (%) over vanilla for WorkPackage NFs @2.3 GHz",
		Columns: []string{"n_accesses", "w_randoms", "s_mb", "vanilla_gbps", "packetmill_gbps", "improvement_pct"},
	}
	p := &Plan{Tables: []*Table{t}}
	ws := []int{0, 4, 8, 12, 16, 20}
	ss := []int{0, 1, 2, 4, 8, 16}
	for _, n := range []int{1, 5} {
		for _, w := range ws {
			for _, s := range ss {
				p.Unit(func(u *U) {
					cfg := nf.WorkPackageForwarder(32, s, n, w)
					o := campusOpts(2.3, 100, pkts(6000, scale))
					o.Seed = u.Seed
					van, err := runVanilla(cfg, o)
					if err != nil {
						panic(fmt.Sprintf("fig7 vanilla W=%d S=%d: %v", w, s, err))
					}
					pm, err := runPacketMill(cfg, o)
					if err != nil {
						panic(fmt.Sprintf("fig7 packetmill W=%d S=%d: %v", w, s, err))
					}
					imp := 0.0
					if van.Gbps() > 0 {
						imp = (pm.Gbps() - van.Gbps()) / van.Gbps() * 100
					}
					u.Add(fmt.Sprint(n), fmt.Sprint(w), fmt.Sprint(s),
						f1(van.Gbps()), f1(pm.Gbps()), f1(imp))
				})
			}
		}
	}
	return p
}

// fig8 sweeps frequency for the IDS+router under vanilla and PacketMill.
func fig8(scale float64) *Plan {
	t := &Table{
		ID:      "fig8",
		Title:   "IDS+router: throughput & median latency vs frequency",
		Columns: []string{"variant", "freq_ghz", "throughput_gbps", "median_latency_us"},
	}
	p := &Plan{Tables: []*Table{t}}
	cfg := nf.IDSRouter(32)
	for _, variant := range []string{"vanilla", "packetmill"} {
		for _, f := range freqSweep {
			p.Unit(func(u *U) {
				o := campusOpts(f, 100, pkts(12000, scale))
				o.Seed = u.Seed
				var (
					res *testbed.Result
					err error
				)
				if variant == "vanilla" {
					res, err = runVanilla(cfg, o)
				} else {
					res, err = runPacketMill(cfg, o)
				}
				if err != nil {
					panic(fmt.Sprintf("fig8 %s@%v: %v", variant, f, err))
				}
				u.Add(variant, f1(f), f1(res.Gbps()), f1(stats.MicrosFromNS(res.Latency.Quantile(0.5))))
			})
		}
	}
	return p
}

// fig9 zooms into the N=1, W=4 slice: throughput, LLC load-miss
// percentage, and LLC kilo-loads per 100 ms as the footprint S grows.
func fig9(scale float64) *Plan {
	t := &Table{
		ID:      "fig9",
		Title:   "memory intensiveness (N=1, W=4): throughput, LLC miss %, LLC loads vs S",
		Columns: []string{"variant", "s_mb", "throughput_gbps", "llc_miss_pct", "llc_kilo_loads_100ms"},
	}
	p := &Plan{Tables: []*Table{t}}
	sizes := []int{0, 1, 2, 3, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	for _, variant := range []string{"vanilla", "packetmill"} {
		for _, s := range sizes {
			p.Unit(func(u *U) {
				cfg := nf.WorkPackageForwarder(32, s, 1, 4)
				o := campusOpts(2.3, 100, pkts(30000, scale))
				o.Seed = u.Seed
				var (
					res *testbed.Result
					err error
				)
				if variant == "vanilla" {
					res, err = runVanilla(cfg, o)
				} else {
					res, err = runPacketMill(cfg, o)
				}
				if err != nil {
					panic(fmt.Sprintf("fig9 %s S=%d: %v", variant, s, err))
				}
				missPct := 0.0
				if res.Counters.LLCLoads > 0 {
					missPct = float64(res.Counters.LLCLoadMisses) / float64(res.Counters.LLCLoads) * 100
				}
				window := 1e8 / res.Duration
				u.Add(variant, fmt.Sprint(s), f1(res.Gbps()), f1(missPct),
					f1(float64(res.Counters.LLCLoads)*window/1e3))
			})
		}
	}
	return p
}

// fig10 scales the NAT across cores with RSS.
func fig10(scale float64) *Plan {
	t := &Table{
		ID:      "fig10",
		Title:   "NAT: throughput vs core count (1024-B packets, RSS)",
		Columns: []string{"variant", "cores", "throughput_gbps"},
	}
	p := &Plan{Tables: []*Table{t}}
	cfg := nf.NATRouter(32)
	for _, variant := range []string{"vanilla", "packetmill"} {
		for _, cores := range []int{1, 2, 3, 4} {
			p.Unit(func(u *U) {
				o := campusOpts(2.3, 100, pkts(12000, scale))
				o.Cores = cores
				o.FixedSize = 1024
				o.Seed = u.Seed
				var (
					res *testbed.Result
					err error
				)
				if variant == "vanilla" {
					res, err = runVanilla(cfg, o)
				} else {
					res, err = runPacketMill(cfg, o)
				}
				if err != nil {
					panic(fmt.Sprintf("fig10 %s cores=%d: %v", variant, cores, err))
				}
				u.Add(variant, fmt.Sprint(cores), f1(res.Gbps()))
			})
		}
	}
	return p
}

// fig11a compares FastClick (Copying), l2fwd, PacketMill (X-Change), and
// l2fwd-xchg per packet size at 1.2 GHz. Each app×size cell is one unit.
func fig11a(scale float64) *Plan {
	t := &Table{
		ID:      "fig11a",
		Title:   "DPDK apps vs FastClick/PacketMill per packet size @1.2 GHz",
		Columns: []string{"app", "size_b", "throughput_gbps"},
	}
	p := &Plan{Tables: []*Table{t}}
	n := pkts(8000, scale)
	for _, size := range sizeSweep {
		// FastClick, Copying model, vanilla.
		p.Unit(func(u *U) {
			fc, err := runVanilla(nf.Forwarder(0, 32), testbed.Options{
				FreqGHz: 1.2, RateGbps: 100, Packets: n, FixedSize: size, Seed: u.Seed})
			if err != nil {
				panic(err)
			}
			u.Add("fastclick-copying", fmt.Sprint(size), f1(fc.Gbps()))
		})

		// l2fwd: stock DPDK sample.
		p.Unit(func(u *U) {
			l2, err := testbed.RunEngines(testbed.Options{
				FreqGHz: 1.2, Model: click.Copying, RateGbps: 100, Packets: n, FixedSize: size,
				Seed: u.Seed,
			}, func(d *testbed.DUT, core int) (testbed.Engine, error) {
				return l2fwd.New(d.PortsFor[core][0]), nil
			})
			if err != nil {
				panic(err)
			}
			u.Add("l2fwd", fmt.Sprint(size), f1(l2.Gbps()))
		})

		// PacketMill: X-Change + source-code opts.
		p.Unit(func(u *U) {
			pm, err := runPacketMill(nf.Forwarder(0, 32), testbed.Options{
				FreqGHz: 1.2, RateGbps: 100, Packets: n, FixedSize: size, Seed: u.Seed})
			if err != nil {
				panic(err)
			}
			u.Add("packetmill", fmt.Sprint(size), f1(pm.Gbps()))
		})

		// l2fwd-xchg: the two-field descriptor.
		p.Unit(func(u *U) {
			lx, err := testbed.RunEngines(testbed.Options{
				FreqGHz: 1.2, Model: click.XChange, MetaLayout: layout.MinimalXchg(),
				RateGbps: 100, Packets: n, FixedSize: size, Seed: u.Seed,
			}, func(d *testbed.DUT, core int) (testbed.Engine, error) {
				return l2fwd.New(d.PortsFor[core][0]), nil
			})
			if err != nil {
				panic(err)
			}
			u.Add("l2fwd-xchg", fmt.Sprint(size), f1(lx.Gbps()))
		})
	}
	return p
}

// fig11b compares VPP, FastClick (Copying), FastClick-Light (Overlaying),
// BESS, and PacketMill per packet size at 1.2 GHz.
func fig11b(scale float64) *Plan {
	t := &Table{
		ID:      "fig11b",
		Title:   "framework comparison per packet size @1.2 GHz",
		Columns: []string{"framework", "size_b", "throughput_gbps"},
	}
	p := &Plan{Tables: []*Table{t}}
	n := pkts(8000, scale)
	src := netpkt.MAC{0x02, 0, 0, 0, 0, 2}
	dst := netpkt.MAC{0x02, 0, 0, 0, 0, 1}
	for _, size := range sizeSweep {
		// VPP.
		p.Unit(func(u *U) {
			vp, err := testbed.RunEngines(testbed.Options{
				FreqGHz: 1.2, Model: click.Overlaying, MetaLayout: layout.VLIBBuffer(),
				RateGbps: 100, Packets: n, FixedSize: size, Seed: u.Seed,
			}, func(d *testbed.DUT, core int) (testbed.Engine, error) {
				return vpp.New(d.PortsFor[core][0], vpp.L2Rewrite{Src: src, Dst: dst}), nil
			})
			if err != nil {
				panic(err)
			}
			u.Add("vpp", fmt.Sprint(size), f1(vp.Gbps()))
		})

		// FastClick default (Copying).
		p.Unit(func(u *U) {
			fc, err := runVanilla(nf.Forwarder(0, 32), testbed.Options{
				FreqGHz: 1.2, RateGbps: 100, Packets: n, FixedSize: size, Seed: u.Seed})
			if err != nil {
				panic(err)
			}
			u.Add("fastclick-copying", fmt.Sprint(size), f1(fc.Gbps()))
		})

		// FastClick-Light (Overlaying).
		p.Unit(func(u *U) {
			fl, err := testbed.Run(nf.Forwarder(0, 32), testbed.Options{
				FreqGHz: 1.2, Model: click.Overlaying,
				RateGbps: 100, Packets: n, FixedSize: size, Seed: u.Seed})
			if err != nil {
				panic(err)
			}
			u.Add("fastclick-light", fmt.Sprint(size), f1(fl.Gbps()))
		})

		// BESS.
		p.Unit(func(u *U) {
			bs, err := testbed.RunEngines(testbed.Options{
				FreqGHz: 1.2, Model: click.Overlaying,
				RateGbps: 100, Packets: n, FixedSize: size, Seed: u.Seed,
			}, func(d *testbed.DUT, core int) (testbed.Engine, error) {
				return bess.New(d.PortsFor[core][0], bess.Update{Src: src, Dst: dst}), nil
			})
			if err != nil {
				panic(err)
			}
			u.Add("bess", fmt.Sprint(size), f1(bs.Gbps()))
		})

		// PacketMill.
		p.Unit(func(u *U) {
			pm, err := runPacketMill(nf.Forwarder(0, 32), testbed.Options{
				FreqGHz: 1.2, RateGbps: 100, Packets: n, FixedSize: size, Seed: u.Seed})
			if err != nil {
				panic(err)
			}
			u.Add("packetmill", fmt.Sprint(size), f1(pm.Gbps()))
		})
	}
	return p
}
