// Experiment: the million-flow state plane. Not a paper figure — a
// robustness exhibit for this repository's conntrack subsystem: (1) the
// shard alone, filled to capacity and then hit with a mass-expiry storm,
// showing that occupancy holds at a million concurrent flows and that
// the timer wheel drains the storm under its per-call sweep budget; and
// (2) the full datapath under flow churn, SYN flood, and expiry-storm
// traffic, showing where the pressure goes (state-aware evictions vs
// the DropFlowTable* taxonomy) while conservation holds.
package exp

import (
	"fmt"

	"packetmill/internal/click"
	"packetmill/internal/conntrack"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
	"packetmill/internal/stats"
	"packetmill/internal/testbed"
	"packetmill/internal/trafficgen"
)

func init() {
	register("conntrack", "million-flow state plane: shard scaling × datapath churn", conntrackExhibit)
}

// shardKey derives a distinct 5-tuple per flow index.
func shardKey(i uint32) conntrack.Key {
	return conntrack.Key{
		SrcIP: 0x0a000000 + i, DstIP: 0x0b000000 + i*13,
		SrcPort: uint16(i%60000) + 1024, DstPort: 443,
		Proto: netpkt.ProtoTCP,
	}
}

// ctChurnCfg is the standalone tracker under sustained churn; timeouts
// are compressed so flows age out within the run's simulated window.
const ctChurnCfg = `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> ct :: ConnTracker(CAPACITY 1024, ESTABLISHED_MS 2, EMBRYONIC_MS 1, CLOSING_MS 1, UDP_MS 1)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`

// ctFloodCfg is a deliberately small protected tracker: the flood must
// be absorbed by embryonic evictions, never an established connection.
const ctFloodCfg = `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> ct :: ConnTracker(CAPACITY 256, PROTECT true)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`

// ctStormCfg gives every wave room, so drained occupancy is pure aging.
const ctStormCfg = `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> ct :: ConnTracker(CAPACITY 8192, ESTABLISHED_MS 1, EMBRYONIC_MS 1)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`

// natChurnCfg is the rebuilt NAT: churn far beyond capacity must recycle
// ports instead of leaking the table full.
const natChurnCfg = `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> nat :: IPRewriter(EXTIP 192.168.100.1, CAPACITY 256, UDP_MS 1, ESTABLISHED_MS 2)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`

func synFloodMix(cfg trafficgen.Config) trafficgen.Source {
	legit := cfg
	legit.Count = cfg.Count / 4
	legit.RateGbps = cfg.RateGbps / 4
	flood := cfg
	flood.Seed = cfg.Seed ^ 0x5f1d
	flood.Count = cfg.Count - legit.Count
	flood.RateGbps = cfg.RateGbps - legit.RateGbps
	return trafficgen.NewMerge(
		trafficgen.NewChurn(trafficgen.ChurnConfig{Config: legit, Concurrent: 64, FlowPackets: 16}),
		trafficgen.NewSYNFlood(flood),
	)
}

// conntrackExhibit builds both tables. Table one drives the shard
// directly (no packets): fill to capacity with established flows, hold,
// then jump the clock past the idle timeout so every timer matures at
// once, counting how many budgeted sweeps drain the storm. Table two
// runs the datapath scenarios end to end on the testbed.
func conntrackExhibit(scale float64) *Plan {
	scaleT := &Table{
		ID:    "conntrack-scale",
		Title: "shard scaling: held flows, mass-expiry drain under sweep budget",
		Columns: []string{"capacity", "held_flows", "expirations", "evictions",
			"refusals", "drain_sweeps", "max_lag_ms"},
	}
	churnT := &Table{
		ID:    "conntrack-churn",
		Title: "datapath under churn/flood/storm: occupancy, eviction split, drop taxonomy",
		Columns: []string{"scenario", "gbps", "p99_us", "entries", "capacity", "insertions",
			"expirations", "evict_embryonic", "evict_established", "refused",
			"table_drops", "ports_recycled"},
	}
	p := &Plan{Tables: []*Table{scaleT, churnT}}

	for _, base := range []int{1 << 16, 1 << 18, 1 << 20} {
		base := base
		p.Unit(func(u *U) {
			capN := int(float64(base) * scale)
			if capN < 4096 {
				capN = 4096
			}
			cfg := conntrack.Config{Capacity: capN}
			s := conntrack.NewShard(cfg, memsim.NewArena("exp-conntrack", memsim.HeapBase, 1<<31), u.Seed)
			// Fill: one flow per microsecond, walked to Established.
			now := 0.0
			for i := 0; i < capN; i++ {
				k := shardKey(uint32(i))
				s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagSYN, now, 0)
				s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagSYN|netpkt.TCPFlagACK, now, 0)
				s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagACK, now, 0)
				now += 1e3
				if i&255 == 255 {
					s.Advance(nil, now)
				}
			}
			// Hold: refresh every flow once; the population must stay live.
			for i := 0; i < capN; i++ {
				s.Track(nil, shardKey(uint32(i)), netpkt.ProtoTCP,
					netpkt.TCPFlagACK|netpkt.TCPFlagPSH, now, 0)
				now += 100
			}
			held := s.Len()
			// Storm: jump past the established timeout so every timer
			// matures at once; count budgeted sweeps until drained.
			now += 130e9
			sweeps := 0
			for s.Len() > 0 && sweeps < 4*capN {
				s.Advance(nil, now)
				now += 1e6
				sweeps++
			}
			st := s.StatsSnapshot()
			u.AddTo(0, fmt.Sprint(capN), fmt.Sprint(held),
				fmt.Sprint(st.Expirations), fmt.Sprint(st.EvictionsTotal()),
				fmt.Sprint(st.RefusedFull), fmt.Sprint(sweeps),
				f1(st.MaxWheelLagNS/1e6))
		})
	}

	scenarios := []struct {
		name    string
		config  string
		traffic func(cfg trafficgen.Config) trafficgen.Source
	}{
		{"churn", ctChurnCfg, func(cfg trafficgen.Config) trafficgen.Source {
			return trafficgen.NewChurn(trafficgen.ChurnConfig{
				Config: cfg, Concurrent: 2048, FlowPackets: 6,
			})
		}},
		{"syn-flood", ctFloodCfg, synFloodMix},
		{"expiry-storm", ctStormCfg, func(cfg trafficgen.Config) trafficgen.Source {
			return trafficgen.NewExpiryStorm(cfg, 512, 1e7)
		}},
		{"nat-churn", natChurnCfg, func(cfg trafficgen.Config) trafficgen.Source {
			return trafficgen.NewChurn(trafficgen.ChurnConfig{
				Config: cfg, Concurrent: 2048, FlowPackets: 4,
			})
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		p.Unit(func(u *U) {
			o := testbed.Options{
				FreqGHz: 2.4, RateGbps: 100, Packets: pkts(20000, scale),
				Model: click.XChange, Telemetry: true, Seed: u.Seed,
			}
			o.Traffic = func(n int, cfg trafficgen.Config) trafficgen.Source {
				return sc.traffic(cfg)
			}
			res, err := testbed.Run(sc.config, o)
			if err != nil {
				panic(fmt.Sprintf("conntrack %s: %v", sc.name, err))
			}
			if res.Telemetry == nil || len(res.Telemetry.Conntrack) == 0 {
				panic(fmt.Sprintf("conntrack %s: no flow-table report", sc.name))
			}
			ct := res.Telemetry.Conntrack[0]
			tableDrops := res.DropsByReason.Get(stats.DropFlowTableFull) +
				res.DropsByReason.Get(stats.DropFlowTableNoPort) +
				res.DropsByReason.Get(stats.DropFlowTableInvalid)
			u.AddTo(1, sc.name, f1(res.Gbps()), f2(res.Latency.Quantile(0.99)/1e3),
				fmt.Sprint(ct.FlowTableEntries), fmt.Sprint(ct.Capacity),
				fmt.Sprint(ct.Insertions), fmt.Sprint(ct.Expirations),
				fmt.Sprint(ct.Evictions["embryonic"]), fmt.Sprint(ct.Evictions["established"]),
				fmt.Sprint(ct.RefusedFull+ct.RefusedInvalid),
				fmt.Sprint(tableDrops), fmt.Sprint(ct.PortsRecycled))
		})
	}
	return p
}
