package diagnose

import (
	"strings"
	"testing"

	"packetmill/internal/conntrack"
	"packetmill/internal/flowlog"
	"packetmill/internal/stats"
)

func key(i uint32) conntrack.Key {
	return conntrack.Key{SrcIP: 0x0a000000 + i, DstIP: 0x0a010001,
		SrcPort: uint16(1024 + i%40000), DstPort: 80, Proto: 6}
}

// cleanChurn is a healthy baseline: completed TCP flows, no pressure.
func cleanChurn(n int) []flowlog.Record {
	var recs []flowlog.Record
	for i := 0; i < n; i++ {
		recs = append(recs, flowlog.Record{
			Key: key(uint32(i)), State: conntrack.StateClosed,
			Verdict: flowlog.VerdictForwarded, End: flowlog.EndDeleted,
			Reason:  stats.NumDropReasons,
			Packets: 8, Bytes: 4096,
			FirstNS: float64(i) * 1e5, LastNS: float64(i)*1e5 + 5e6,
		})
	}
	return recs
}

func synFlood() []flowlog.Record {
	recs := cleanChurn(10) // a few legitimate connections survive
	for i := 0; i < 300; i++ {
		recs = append(recs, flowlog.Record{
			Key: key(uint32(1000 + i)), State: conntrack.StateSynSent,
			Verdict: flowlog.VerdictEvicted, End: flowlog.EndEvicted,
			Reason:  stats.NumDropReasons,
			Packets: 1, Bytes: 64,
			FirstNS: float64(i) * 1e4, LastNS: float64(i) * 1e4,
		})
	}
	recs = append(recs, flowlog.Record{
		Core: 0, Verdict: flowlog.VerdictRefused, End: flowlog.EndAggregate,
		Reason: stats.DropFlowTableFull, Aggregate: true, Packets: 200, Bytes: 12800,
	})
	return recs
}

func natExhaustion() []flowlog.Record {
	var recs []flowlog.Record
	for i := 0; i < 50; i++ {
		r := flowlog.Record{
			Key: key(uint32(i)), State: conntrack.StateEstablished,
			Verdict: flowlog.VerdictForwarded, End: flowlog.EndActive,
			Reason:  stats.NumDropReasons,
			Packets: 6, Bytes: 3000,
			NATIP: 0xc0a80001, NATPort: uint16(40000 + i),
			FirstNS: float64(i) * 1e5, LastNS: 1e8,
		}
		recs = append(recs, r)
	}
	recs = append(recs, flowlog.Record{
		Verdict: flowlog.VerdictRefused, End: flowlog.EndAggregate,
		Reason: stats.DropFlowTableNoPort, Aggregate: true, Packets: 400,
	})
	return recs
}

func shedStorm() []flowlog.Record {
	recs := cleanChurn(50) // 400 forwarded packets
	recs = append(recs, flowlog.Record{
		Core: -1, Verdict: flowlog.VerdictShed, End: flowlog.EndAggregate,
		Reason: stats.DropOverloadShed, Aggregate: true, Packets: 300,
	})
	return recs
}

func expiryStorm() []flowlog.Record {
	var recs []flowlog.Record
	// Three dense waves of expiries separated by silence.
	for wave := 0; wave < 3; wave++ {
		base := float64(wave) * 1e9
		for i := 0; i < 100; i++ {
			recs = append(recs, flowlog.Record{
				Key: key(uint32(wave*1000 + i)), State: conntrack.StateEstablished,
				Verdict: flowlog.VerdictForwarded, End: flowlog.EndExpired,
				Reason:  stats.NumDropReasons,
				Packets: 4, Bytes: 2048,
				FirstNS: base, LastNS: base + float64(i)*1e3,
			})
		}
	}
	return recs
}

// elephantSkew spreads 100 mice over two cores and puts the elephant on
// core 1.
func elephantSkew() []flowlog.Record {
	recs := cleanChurn(100) // mice: 4096 bytes each
	for i := range recs {
		recs[i].Core = int32(i % 2)
	}
	recs = append(recs, flowlog.Record{
		Key: conntrack.Key{SrcIP: 0x0afe0001, DstIP: 0x0a010001,
			SrcPort: 9999, DstPort: 443, Proto: 6},
		Core:  1,
		State: conntrack.StateEstablished, Verdict: flowlog.VerdictForwarded,
		End: flowlog.EndActive, Reason: stats.NumDropReasons,
		Packets: 1000, Bytes: 1 << 20,
		FirstNS: 0, LastNS: 1e9,
	})
	return recs
}

// Each scenario's record stream must earn exactly its own finding — and
// no detector may cross-fire on another scenario's stream or on the
// clean baseline. This is the same zero-false-positive matrix the
// exhibit enforces end to end; here it runs on synthetic streams so a
// detector regression is caught without driving the testbed.
func TestDiagnosisMatrix(t *testing.T) {
	streams := map[Scenario][]flowlog.Record{
		SYNFlood:          synFlood(),
		NATPortExhaustion: natExhaustion(),
		ShedStorm:         shedStorm(),
		ExpiryStorm:       expiryStorm(),
		ElephantSkew:      elephantSkew(),
	}
	if got := Run(cleanChurn(200), Defaults()); len(got) != 0 {
		t.Fatalf("clean churn produced findings: %+v", got)
	}
	for want, recs := range streams {
		findings := Run(recs, Defaults())
		if len(findings) != 1 {
			t.Fatalf("%s stream: %d findings, want exactly 1: %+v", want, len(findings), findings)
		}
		if findings[0].Scenario != want {
			t.Fatalf("%s stream diagnosed as %s", want, findings[0].Scenario)
		}
		if findings[0].Summary == "" || len(findings[0].Evidence) == 0 {
			t.Fatalf("%s finding lacks summary/evidence: %+v", want, findings[0])
		}
	}
}

// The elephant-skew finding names the core the elephant's record says
// it ran on, and that core's share of flow bytes — no hash involved.
func TestElephantSkewNamesCore(t *testing.T) {
	findings := Run(elephantSkew(), Defaults())
	if len(findings) != 1 {
		t.Fatalf("%d findings, want 1: %+v", len(findings), findings)
	}
	ev := map[string]float64{}
	for _, e := range findings[0].Evidence {
		ev[e.Name] = e.Value
	}
	const elephant, mice = 1 << 20, 50 * 4096 // core 1 holds the elephant and 50 mice
	if got := ev["elephant_core"]; got != 1 {
		t.Fatalf("elephant_core = %v, want 1", got)
	}
	if got, want := ev["elephant_core_share"], float64(elephant+mice)/float64(elephant+2*mice); got != want {
		t.Fatalf("elephant_core_share = %v, want %v", got, want)
	}
	if !strings.Contains(findings[0].Summary, "its core 1 carries") {
		t.Fatalf("summary does not name the core: %q", findings[0].Summary)
	}
}

// Below their evidence floors the detectors stay silent.
func TestThresholdFloors(t *testing.T) {
	// A handful of half-open evictions is churn, not a flood.
	few := cleanChurn(10)
	for i := 0; i < 8; i++ {
		few = append(few, flowlog.Record{
			Key: key(uint32(500 + i)), State: conntrack.StateSynSent,
			Verdict: flowlog.VerdictEvicted, End: flowlog.EndEvicted,
			Reason: stats.NumDropReasons, Packets: 1, Bytes: 64,
		})
	}
	if got := Run(few, Defaults()); len(got) != 0 {
		t.Fatalf("sub-threshold evictions produced findings: %+v", got)
	}
	// A trickle of sheds under the share floor is not a storm.
	trickle := cleanChurn(2000) // 16000 packets forwarded
	trickle = append(trickle, flowlog.Record{
		Verdict: flowlog.VerdictShed, End: flowlog.EndAggregate,
		Reason: stats.DropOverloadShed, Aggregate: true, Packets: 100,
	})
	if got := Run(trickle, Defaults()); len(got) != 0 {
		t.Fatalf("sub-share sheds produced findings: %+v", got)
	}
	// Steady expiries (uniform in time) are not a storm.
	var steady []flowlog.Record
	for i := 0; i < 500; i++ {
		steady = append(steady, flowlog.Record{
			Key: key(uint32(i)), State: conntrack.StateEstablished,
			Verdict: flowlog.VerdictForwarded, End: flowlog.EndExpired,
			Reason: stats.NumDropReasons, Packets: 4, Bytes: 2048,
			FirstNS: 0, LastNS: float64(i) * 1e6,
		})
	}
	if got := Run(steady, Defaults()); len(got) != 0 {
		t.Fatalf("uniform expiries produced findings: %+v", got)
	}
}
