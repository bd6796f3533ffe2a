// Experiments: Figure 1, Figure 4 + Table 1, Figure 5a/5b, Figure 6.
//
// Each exhibit builds a Plan of independent run units — one per
// (variant, sweep-point) cell — enumerated in the same nested order the
// old serial loops used, so the merged tables are byte-identical.
package exp

import (
	"fmt"

	"packetmill/internal/click"
	"packetmill/internal/nf"
	"packetmill/internal/stats"
	"packetmill/internal/testbed"
)

func init() {
	register("fig1", "p99 latency vs throughput, router @2.3 GHz, 1 core", fig1)
	register("fig4", "router throughput & median latency vs frequency, 5 variants", fig4)
	register("tab1", "microarchitectural metrics @3 GHz (LLC loads/misses, IPC, Mpps)", tab1)
	register("fig5a", "forwarder: metadata models vs frequency, one NIC", fig5a)
	register("fig5b", "forwarder: metadata models vs frequency, two NICs, one core", fig5b)
	register("fig6", "router @2.3 GHz: throughput & PPS vs packet size", fig6)
}

// fig1 sweeps the offered load and reports p99 latency vs achieved
// throughput for vanilla and PacketMill — the latency knee.
func fig1(scale float64) *Plan {
	t := &Table{
		ID:      "fig1",
		Title:   "99th-percentile latency vs throughput (router, 1 core @2.3 GHz, campus mix)",
		Columns: []string{"variant", "offered_gbps", "throughput_gbps", "p99_us", "p50_us", "p999_us"},
	}
	p := &Plan{Tables: []*Table{t}}
	loads := []float64{5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cfg := nf.Router(32)
	for _, variant := range []string{"vanilla", "packetmill"} {
		for _, load := range loads {
			p.Unit(func(u *U) {
				o := campusOpts(2.3, load, pkts(20000, scale))
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
					panic(fmt.Sprintf("fig1 %s@%v: %v", variant, load, err))
				}
				// p99 stays in column 3 (the shape checks read it by
				// index); the tail column rides behind it.
				u.Add(variant, f1(load), f1(res.Gbps()),
					f1(stats.MicrosFromNS(res.Latency.Quantile(0.99))),
					f1(stats.MicrosFromNS(res.Latency.Quantile(0.5))),
					f1(stats.MicrosFromNS(res.Latency.Quantile(0.999))))
			})
		}
	}
	return p
}

// fig4Variants are the five builds of Figure 4 / Table 1.
var fig4Variants = []struct {
	name string
	opt  click.OptLevel
}{
	{"vanilla", click.OptLevel{}},
	{"devirtualize", click.OptLevel{Devirtualize: true}},
	{"constembed", click.OptLevel{Devirtualize: true, ConstEmbed: true}},
	{"staticgraph", click.OptLevel{Devirtualize: true, ConstEmbed: true, StaticGraph: true}},
	{"all", click.AllOpts()},
}

func runFig4Variant(opt click.OptLevel, o testbed.Options) (*testbed.Result, error) {
	o.Model = click.Copying // §4.1 uses the default model; code opts only
	o.Opt = opt
	return testbed.Run(nf.Router(32), o)
}

// fig4 sweeps frequency for the five code-optimization variants and, like
// the paper's figure annotations, fits Thr(f) = a + b·f and
// Lat(f) = a + b·f + c·f² with R². Units fill disjoint slots of the raw
// series; the fits run in Finish, after every unit has merged.
func fig4(scale float64) *Plan {
	t := &Table{
		ID:      "fig4",
		Title:   "router: throughput & median latency vs core frequency (code optimizations, Copying model)",
		Columns: []string{"variant", "freq_ghz", "throughput_gbps", "median_latency_us"},
	}
	fits := &Table{
		ID:      "fig4-fits",
		Title:   "fitted curves per variant (the paper's figure annotations)",
		Columns: []string{"variant", "thr_a", "thr_b", "thr_r2", "lat_a", "lat_b", "lat_c", "lat_r2"},
	}
	p := &Plan{Tables: []*Table{t, fits}}
	thr := make([][]float64, len(fig4Variants))
	lat := make([][]float64, len(fig4Variants))
	for vi, v := range fig4Variants {
		thr[vi] = make([]float64, len(freqSweep))
		lat[vi] = make([]float64, len(freqSweep))
		for fi, f := range freqSweep {
			p.Unit(func(u *U) {
				o := campusOpts(f, 100, pkts(15000, scale))
				o.Seed = u.Seed
				res, err := runFig4Variant(v.opt, o)
				if err != nil {
					panic(fmt.Sprintf("fig4 %s@%v: %v", v.name, f, err))
				}
				u.Add(v.name, f1(f), f1(res.Gbps()), f1(stats.MicrosFromNS(res.Latency.Quantile(0.5))))
				thr[vi][fi] = res.Gbps()
				lat[vi][fi] = stats.MicrosFromNS(res.Latency.Quantile(0.5))
			})
		}
	}
	p.Finish(func() {
		for vi, v := range fig4Variants {
			ta, tb, tr2 := stats.LinearFit(freqSweep, thr[vi])
			la, lb, lc, lr2 := stats.QuadFit(freqSweep, lat[vi])
			fits.Add(v.name, f2(ta), f2(tb), fmt.Sprintf("%.4f", tr2),
				f2(la), f2(lb), f2(lc), fmt.Sprintf("%.4f", lr2))
		}
	})
	return p
}

// tab1 reports Table 1's microarchitectural metrics at 3 GHz: LLC kilo
// loads and load misses per 100 ms, IPC, and Mpps.
func tab1(scale float64) *Plan {
	t := &Table{
		ID:      "tab1",
		Title:   "microarchitectural metrics @3 GHz (per 100 ms, campus mix)",
		Columns: []string{"variant", "llc_kilo_loads", "llc_kilo_load_misses", "ipc", "mpps"},
	}
	p := &Plan{Tables: []*Table{t}}
	for _, v := range fig4Variants {
		p.Unit(func(u *U) {
			o := campusOpts(3.0, 100, pkts(25000, scale))
			o.Seed = u.Seed
			res, err := runFig4Variant(v.opt, o)
			if err != nil {
				panic(fmt.Sprintf("tab1 %s: %v", v.name, err))
			}
			// Scale counters to a 100-ms window like perf's sampling.
			window := 1e8 / res.Duration // (100 ms) / measured ns
			u.Add(v.name,
				f1(float64(res.Counters.LLCLoads)*window/1e3),
				f2(float64(res.Counters.LLCLoadMisses)*window/1e3),
				f2(res.Counters.IPC()),
				f2(res.Mpps()))
		})
	}
	return p
}

// modelVariants are Figure 5's three metadata-management models.
var modelVariants = []struct {
	name  string
	model click.MetadataModel
}{
	{"copying", click.Copying},
	{"overlaying", click.Overlaying},
	{"x-change", click.XChange},
}

// fig5a compares the metadata models on the forwarder across frequency
// (one NIC, one core, LTO everywhere, no code opts — §4.2's isolation).
func fig5a(scale float64) *Plan {
	t := &Table{
		ID:      "fig5a",
		Title:   "forwarder: throughput vs frequency per metadata model (one NIC)",
		Columns: []string{"model", "freq_ghz", "throughput_gbps"},
	}
	p := &Plan{Tables: []*Table{t}}
	for _, v := range modelVariants {
		for _, f := range freqSweep {
			p.Unit(func(u *U) {
				o := campusOpts(f, 100, pkts(15000, scale))
				o.Model = v.model
				o.Seed = u.Seed
				res, err := testbed.Run(nf.Forwarder(0, 32), o)
				if err != nil {
					panic(fmt.Sprintf("fig5a %s@%v: %v", v.name, f, err))
				}
				u.Add(v.name, f1(f), f1(res.Gbps()))
			})
		}
	}
	return p
}

// fig5b repeats fig5a with two 100-GbE NICs feeding one core.
func fig5b(scale float64) *Plan {
	t := &Table{
		ID:      "fig5b",
		Title:   "forwarder: total throughput vs frequency per metadata model (two NICs, one core)",
		Columns: []string{"model", "freq_ghz", "total_throughput_gbps"},
	}
	p := &Plan{Tables: []*Table{t}}
	for _, v := range modelVariants {
		for _, f := range freqSweep {
			p.Unit(func(u *U) {
				o := campusOpts(f, 100, pkts(10000, scale))
				o.Model = v.model
				o.NICs = 2
				o.Seed = u.Seed
				res, err := testbed.Run(nf.TwoNICForwarder(32), o)
				if err != nil {
					panic(fmt.Sprintf("fig5b %s@%v: %v", v.name, f, err))
				}
				u.Add(v.name, f1(f), f1(res.Gbps()))
			})
		}
	}
	return p
}

// fig6 sweeps fixed packet sizes through the router at 2.3 GHz.
func fig6(scale float64) *Plan {
	t := &Table{
		ID:      "fig6",
		Title:   "router @2.3 GHz: throughput (Gbps) and rate (Mpps) vs packet size",
		Columns: []string{"variant", "size_b", "throughput_gbps", "mpps"},
	}
	p := &Plan{Tables: []*Table{t}}
	cfg := nf.Router(32)
	for _, variant := range []string{"vanilla", "packetmill"} {
		for _, size := range sizeSweep {
			p.Unit(func(u *U) {
				o := campusOpts(2.3, 100, pkts(15000, scale))
				o.FixedSize = size
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
					panic(fmt.Sprintf("fig6 %s@%d: %v", variant, size, err))
				}
				u.Add(variant, fmt.Sprint(size), f1(res.Gbps()), f2(res.Mpps()))
			})
		}
	}
	return p
}
