package testbed

import (
	"testing"

	"packetmill/internal/click"
	"packetmill/internal/flowlog"
	"packetmill/internal/netpkt"
	"packetmill/internal/nf"
	"packetmill/internal/stats"
	"packetmill/internal/trafficgen"
)

// The flow-churn acceptance run: the NAT on its conntrack shard under
// sustained flow churn far beyond capacity. The table must stay bounded
// (the leak fix), conservation must balance including the DropFlowTable*
// reasons, and the telemetry report must carry the flow-table ledger.
func TestConntrackChurnConservation(t *testing.T) {
	config := `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> nat :: IPRewriter(EXTIP 192.168.100.1, CAPACITY 256, UDP_MS 1, ESTABLISHED_MS 2)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`
	res, d, err := chaosRun(config, Options{
		Model:     click.XChange,
		Packets:   20000,
		RateGbps:  100,
		Seed:      11,
		Telemetry: true,
		Traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
			return trafficgen.NewChurn(trafficgen.ChurnConfig{
				Config: cfg, Concurrent: 2048, FlowPackets: 4,
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res, d)
	if res.Telemetry == nil || len(res.Telemetry.Conntrack) == 0 {
		t.Fatal("report carries no conntrack section")
	}
	ct := res.Telemetry.Conntrack[0]
	if ct.Element != "nat" {
		t.Fatalf("conntrack entry for %q, want nat", ct.Element)
	}
	if ct.FlowTableEntries > ct.Capacity || ct.Capacity != 256 {
		t.Fatalf("table unbounded: %d/%d entries", ct.FlowTableEntries, ct.Capacity)
	}
	// 2048 concurrent flows against 256 slots: pressure must show as
	// evictions (and any refusals must be conserved as taxonomy drops).
	if ct.Expirations == 0 && len(ct.Evictions) == 0 {
		t.Fatal("no expirations or evictions under churn pressure")
	}
	full := res.DropsByReason.Get(stats.DropFlowTableFull)
	if ct.RefusedFull != full {
		t.Fatalf("shard refusals %d != booked flow-table-full drops %d", ct.RefusedFull, full)
	}
	if ct.PortsRecycled == 0 {
		t.Fatal("NAT recycled no ports across churn")
	}
}

// TestNATPortsDisjointAcrossCores: on a 3-core simulated NAT router,
// flows that RSS spreads over every core all head for one destination,
// so a port two replicas both hand out would make two flows one on the
// wire. Each replica owns the ports p ≡ core (mod 3), so no (external
// port, destination) pair is held by two live flows, read straight off
// the flow records.
func TestNATPortsDisjointAcrossCores(t *testing.T) {
	const cores, flows, rounds = 3, 96, 4
	src := &replaySource{}
	for r := 0; r < rounds; r++ {
		for i := 0; i < flows; i++ {
			src.frames = append(src.frames, netpkt.BuildUDP(make([]byte, 64), netpkt.UDPPacketSpec{
				SrcMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 1},
				DstMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 2},
				SrcIP:   netpkt.IPv4{10, 0, 0, 1},
				DstIP:   netpkt.IPv4{10, 1, 0, 5},
				SrcPort: uint16(2000 + i),
				DstPort: 9,
			}))
			src.times = append(src.times, float64(len(src.times))*100)
		}
	}
	res, d, err := chaosRun(nf.NATRouter(32), Options{
		Model: click.XChange, Cores: cores, Seed: 13, RateGbps: 1,
		Packets: len(src.frames), FlowLog: flowlog.New(flowlog.Config{}),
		Traffic: func(int, trafficgen.Config) trafficgen.Source { return src },
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res, d)

	type extKey struct {
		port    uint16
		dstIP   uint32
		dstPort uint16
		proto   uint8
	}
	holder := map[extKey]flowlog.Record{}
	perCore := make([]int, cores)
	for _, r := range res.Flows {
		if r.Aggregate || r.NATIP == 0 || r.End != flowlog.EndActive {
			continue
		}
		perCore[r.Core]++
		if int(r.NATPort)%cores != int(r.Core) {
			t.Errorf("flow %s on core %d holds port %d, which core %d owns",
				flowlog.FormatKey(r.Key), r.Core, r.NATPort, int(r.NATPort)%cores)
		}
		k := extKey{r.NATPort, r.Key.DstIP, r.Key.DstPort, r.Key.Proto}
		if other, ok := holder[k]; ok {
			t.Errorf("flows %s (core %d) and %s (core %d) both hold external port %d",
				flowlog.FormatKey(other.Key), other.Core, flowlog.FormatKey(r.Key), r.Core, r.NATPort)
		}
		holder[k] = r
	}
	if len(holder) != flows {
		t.Fatalf("%d distinct live translations, want %d (cores: %v)", len(holder), flows, perCore)
	}
	for c, n := range perCore {
		if n == 0 {
			t.Fatalf("core %d holds no flow (%v): RSS did not spread the flow set", c, perCore)
		}
	}
}

// The SYN-flood chaos run: an attack stream of distinct half-opens
// layered over legitimate churn, against a small protected tracker,
// with wire faults injected. The eviction policy must sacrifice the
// embryonic attack entries and never an established connection, and
// conservation must survive the whole storm.
func TestConntrackSYNFloodChaos(t *testing.T) {
	config := `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> ct :: ConnTracker(CAPACITY 128)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`
	res, d, err := chaosRun(config, Options{
		Model:     click.XChange,
		Packets:   20000,
		RateGbps:  100,
		Seed:      13,
		Telemetry: true,
		Faults:    mustSched(t, "drop p=0.02"),
		Traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
			legit := cfg
			legit.Count = cfg.Count / 4
			legit.RateGbps = cfg.RateGbps / 4
			flood := cfg
			flood.Seed = cfg.Seed ^ 0x5f1d
			flood.Count = cfg.Count - legit.Count
			flood.RateGbps = cfg.RateGbps - legit.RateGbps
			return trafficgen.NewMerge(
				trafficgen.NewChurn(trafficgen.ChurnConfig{
					Config: legit, Concurrent: 32, FlowPackets: 16,
				}),
				trafficgen.NewSYNFlood(flood),
			)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res, d)
	if res.FaultStats == nil || res.FaultStats.WireDrops == 0 {
		t.Fatal("fault schedule injected nothing")
	}
	if len(res.Telemetry.Conntrack) == 0 {
		t.Fatal("no conntrack report")
	}
	ct := res.Telemetry.Conntrack[0]
	if ct.Evictions["embryonic"] == 0 {
		t.Fatal("SYN flood against a 128-slot table caused no embryonic evictions")
	}
	if ct.Evictions["established"] != 0 {
		t.Fatalf("flood cannibalized %d established connections", ct.Evictions["established"])
	}
}

// The mass-expiry storm: waves of handshakes followed by silence long
// past the idle timeout, so each wave's timers mature together. The
// budgeted sweep must drain every wave (expirations ≈ insertions) while
// occupancy returns to the live wave only.
func TestConntrackExpiryStorm(t *testing.T) {
	config := `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> ct :: ConnTracker(CAPACITY 4096, ESTABLISHED_MS 1, EMBRYONIC_MS 1)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`
	const wave = 512
	res, d, err := chaosRun(config, Options{
		Model:     click.XChange,
		Packets:   wave * 2 * 4, // 4 waves of SYN+ACK pairs
		RateGbps:  100,
		Seed:      17,
		Telemetry: true,
		Traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
			// 10 ms silence between waves: 10× the 1 ms idle timeout.
			return trafficgen.NewExpiryStorm(cfg, wave, 1e7)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res, d)
	ct := res.Telemetry.Conntrack[0]
	if ct.Insertions == 0 {
		t.Fatal("storm inserted nothing")
	}
	// Every wave but the last has sat idle 10× its timeout; those flows
	// must have expired (the last wave may still be live at shutdown).
	if ct.Expirations < ct.Insertions-wave {
		t.Fatalf("expirations %d lag insertions %d by more than a wave (%d)",
			ct.Expirations, ct.Insertions, wave)
	}
	if ct.FlowTableEntries > wave {
		t.Fatalf("occupancy %d exceeds one wave (%d) after the storm", ct.FlowTableEntries, wave)
	}
}

// churnFrames pre-generates owned churn frames so generation stays out
// of the allocation measurement.
func churnFrames(n int) [][]byte {
	src := trafficgen.NewChurn(trafficgen.ChurnConfig{
		Config:     trafficgen.Config{Seed: 7, RateGbps: 100, Count: n},
		Concurrent: 512, FlowPackets: 6,
	})
	frames := make([][]byte, 0, n)
	for {
		f, _, ok := src.Next()
		if !ok {
			break
		}
		frames = append(frames, append([]byte(nil), f...))
	}
	return frames
}

// The full-datapath zero-alloc gate for the state plane: PMD → conntrack
// shard (lookups, inserts, expiries, TCP transitions) → TX, under flow
// churn, must not allocate per packet once warm.
func TestConntrackDatapathZeroAllocs(t *testing.T) {
	o := Options{Model: click.XChange}.withDefaults()
	d, err := NewDUT(o)
	if err != nil {
		t.Fatal(err)
	}
	g, err := click.Parse(nf.ConnTrackForwarder(32, 4096))
	if err != nil {
		t.Fatal(err)
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		t.Fatal(err)
	}
	eng := &clickEngine{rt: routers[0]}
	frames := churnFrames(2048)
	for _, f := range frames[:1024] {
		pumpOne(d, eng, f)
	}
	next := 1024
	avg := testing.AllocsPerRun(100, func() {
		pumpOne(d, eng, frames[next%len(frames)])
		next++
	})
	if avg != 0 {
		t.Errorf("conntrack datapath allocates %.2f times per packet, want 0", avg)
	}
}
