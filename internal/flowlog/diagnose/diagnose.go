// Scenario diagnosis over flow-record streams: pattern-match one run's
// records into named findings with evidence counts, the way an operator
// would read the ledgers — "this was a SYN flood", "the NAT's port pool
// is dry", "one elephant is pinning its core". Detectors are
// deliberately conservative: each demands both an absolute evidence
// floor and a structural signature, so a clean churn run produces zero
// findings and no scenario cross-fires on another's run (the exhibit's
// zero-false-positive matrix holds the line).
package diagnose

import (
	"fmt"

	"packetmill/internal/conntrack"
	"packetmill/internal/flowlog"
	"packetmill/internal/stats"
)

// Scenario names one recognized failure/traffic pattern.
type Scenario string

const (
	// SYNFlood: embryonic pressure — half-open flows evicted or
	// refused in bulk while completed connections stay rare.
	SYNFlood Scenario = "syn-flood"
	// NATPortExhaustion: the rewriter's external-port pool ran dry.
	NATPortExhaustion Scenario = "nat-port-exhaustion"
	// ShedStorm: the overload control plane refused a significant
	// share of offered load at the RX boundary.
	ShedStorm Scenario = "overload-shed-storm"
	// ExpiryStorm: flow timeouts matured in dense waves instead of a
	// steady trickle.
	ExpiryStorm Scenario = "expiry-storm"
	// ElephantSkew: a few flows dominate bytes and pin the cores RSS
	// gave them.
	ElephantSkew Scenario = "elephant-skew"
)

// Evidence is one named count backing a finding.
type Evidence struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Finding is one diagnosed scenario.
type Finding struct {
	Scenario Scenario   `json:"scenario"`
	Summary  string     `json:"summary"`
	Evidence []Evidence `json:"evidence"`
}

// Thresholds are the detectors' evidence floors. The zero value is
// replaced by Defaults.
type Thresholds struct {
	// SYN flood: at least MinSYNPressure half-open flows lost to
	// eviction/refusal, and half-open endings at least
	// SYNHalfOpenFactor times the completed-connection count.
	MinSYNPressure    uint64
	SYNHalfOpenFactor float64

	// NAT exhaustion: at least MinNoPortPackets refused for want of a
	// port.
	MinNoPortPackets uint64

	// Shed storm: at least MinShedPackets shed AND at least
	// MinShedShare of total observed packets.
	MinShedPackets uint64
	MinShedShare   float64

	// Expiry storm: at least MinExpired flows expired AND the densest
	// of ExpiryWindows time windows holds at least ExpiryPeakFactor
	// times the uniform share.
	MinExpired       uint64
	ExpiryWindows    int
	ExpiryPeakFactor float64

	// Elephant skew: the largest flow carries at least
	// MinElephantShare of flow bytes (and at least MinElephantBytes).
	MinElephantShare float64
	MinElephantBytes uint64
}

// Defaults returns the tuned evidence floors.
func Defaults() Thresholds {
	return Thresholds{
		MinSYNPressure:    64,
		SYNHalfOpenFactor: 4,
		MinNoPortPackets:  64,
		MinShedPackets:    64,
		MinShedShare:      0.02,
		MinExpired:        128,
		ExpiryWindows:     16,
		ExpiryPeakFactor:  2.5,
		MinElephantShare:  0.2,
		MinElephantBytes:  64 << 10,
	}
}

func (t Thresholds) withDefaults() Thresholds {
	d := Defaults()
	if t.MinSYNPressure == 0 {
		t.MinSYNPressure = d.MinSYNPressure
	}
	if t.SYNHalfOpenFactor == 0 {
		t.SYNHalfOpenFactor = d.SYNHalfOpenFactor
	}
	if t.MinNoPortPackets == 0 {
		t.MinNoPortPackets = d.MinNoPortPackets
	}
	if t.MinShedPackets == 0 {
		t.MinShedPackets = d.MinShedPackets
	}
	if t.MinShedShare == 0 {
		t.MinShedShare = d.MinShedShare
	}
	if t.MinExpired == 0 {
		t.MinExpired = d.MinExpired
	}
	if t.ExpiryWindows == 0 {
		t.ExpiryWindows = d.ExpiryWindows
	}
	if t.ExpiryPeakFactor == 0 {
		t.ExpiryPeakFactor = d.ExpiryPeakFactor
	}
	if t.MinElephantShare == 0 {
		t.MinElephantShare = d.MinElephantShare
	}
	if t.MinElephantBytes == 0 {
		t.MinElephantBytes = d.MinElephantBytes
	}
	return t
}

// Run diagnoses one run's record stream. Detectors are independent; a
// run can legitimately earn several findings (a flood that also trips
// table refusals), and a clean run earns none.
func Run(recs []flowlog.Record, th Thresholds) []Finding {
	th = th.withDefaults()
	var out []Finding
	if f, ok := detectSYNFlood(recs, th); ok {
		out = append(out, f)
	}
	if f, ok := detectNATExhaustion(recs, th); ok {
		out = append(out, f)
	}
	if f, ok := detectShedStorm(recs, th); ok {
		out = append(out, f)
	}
	if f, ok := detectExpiryStorm(recs, th); ok {
		out = append(out, f)
	}
	if f, ok := detectElephantSkew(recs, th); ok {
		out = append(out, f)
	}
	return out
}

// halfOpen marks TCP states that never completed a handshake.
func halfOpen(s conntrack.State) bool {
	return s == conntrack.StateSynSent || s == conntrack.StateSynAck
}

// completed marks states at or past a finished handshake.
func completed(s conntrack.State) bool {
	return s == conntrack.StateEstablished || s == conntrack.StateFinWait ||
		s == conntrack.StateClosed
}

func detectSYNFlood(recs []flowlog.Record, th Thresholds) (Finding, bool) {
	var evictedHalfOpen, refusedFull, halfOpenFlows, completedFlows uint64
	for i := range recs {
		r := &recs[i]
		if r.Aggregate {
			if r.Reason == stats.DropFlowTableFull {
				refusedFull += r.Packets
			}
			continue
		}
		if r.Key.Proto != 6 {
			continue
		}
		if halfOpen(r.State) {
			halfOpenFlows++
			if r.Verdict == flowlog.VerdictEvicted {
				evictedHalfOpen++
			}
		} else if completed(r.State) {
			completedFlows++
		}
	}
	pressure := evictedHalfOpen + refusedFull
	if pressure < th.MinSYNPressure {
		return Finding{}, false
	}
	if float64(halfOpenFlows) < th.SYNHalfOpenFactor*float64(completedFlows) {
		return Finding{}, false
	}
	return Finding{
		Scenario: SYNFlood,
		Summary: fmt.Sprintf("half-open pressure: %d embryonic flows evicted, %d packets refused table-full, %d half-open vs %d completed connections",
			evictedHalfOpen, refusedFull, halfOpenFlows, completedFlows),
		Evidence: []Evidence{
			{"evicted_half_open_flows", float64(evictedHalfOpen)},
			{"refused_table_full_packets", float64(refusedFull)},
			{"half_open_flows", float64(halfOpenFlows)},
			{"completed_flows", float64(completedFlows)},
		},
	}, true
}

func detectNATExhaustion(recs []flowlog.Record, th Thresholds) (Finding, bool) {
	var noPort uint64
	var translated uint64
	for i := range recs {
		r := &recs[i]
		if r.Aggregate && r.Reason == stats.DropFlowTableNoPort {
			noPort += r.Packets
		}
		if !r.Aggregate && r.NATIP != 0 {
			translated++
		}
	}
	if noPort < th.MinNoPortPackets {
		return Finding{}, false
	}
	return Finding{
		Scenario: NATPortExhaustion,
		Summary: fmt.Sprintf("external-port pool dry: %d packets refused no-port while %d flows hold translations",
			noPort, translated),
		Evidence: []Evidence{
			{"refused_no_port_packets", float64(noPort)},
			{"translated_flows", float64(translated)},
		},
	}, true
}

func detectShedStorm(recs []flowlog.Record, th Thresholds) (Finding, bool) {
	var shed, total uint64
	for i := range recs {
		if recs[i].Verdict == flowlog.VerdictShed {
			shed += recs[i].Packets
		}
		total += recs[i].Packets
	}
	if shed < th.MinShedPackets || total == 0 {
		return Finding{}, false
	}
	share := float64(shed) / float64(total)
	if share < th.MinShedShare {
		return Finding{}, false
	}
	return Finding{
		Scenario: ShedStorm,
		Summary: fmt.Sprintf("overload plane shed %d packets (%.1f%% of observed load) at the RX boundary",
			shed, share*100),
		Evidence: []Evidence{
			{"shed_packets", float64(shed)},
			{"shed_share", share},
		},
	}, true
}

func detectExpiryStorm(recs []flowlog.Record, th Thresholds) (Finding, bool) {
	var expired []float64
	var first, last float64
	for i := range recs {
		r := &recs[i]
		if r.Aggregate || r.End != flowlog.EndExpired {
			continue
		}
		expired = append(expired, r.LastNS)
		if len(expired) == 1 || r.LastNS < first {
			first = r.LastNS
		}
		if r.LastNS > last {
			last = r.LastNS
		}
	}
	if uint64(len(expired)) < th.MinExpired || last <= first {
		return Finding{}, false
	}
	windows := make([]uint64, th.ExpiryWindows)
	span := last - first
	for _, t := range expired {
		w := int(float64(th.ExpiryWindows) * (t - first) / span)
		if w >= th.ExpiryWindows {
			w = th.ExpiryWindows - 1
		}
		windows[w]++
	}
	var peak uint64
	for _, w := range windows {
		if w > peak {
			peak = w
		}
	}
	uniform := float64(len(expired)) / float64(th.ExpiryWindows)
	factor := float64(peak) / uniform
	if factor < th.ExpiryPeakFactor {
		return Finding{}, false
	}
	return Finding{
		Scenario: ExpiryStorm,
		Summary: fmt.Sprintf("%d flows expired in waves: densest window holds %.1fx the uniform share",
			len(expired), factor),
		Evidence: []Evidence{
			{"expired_flows", float64(len(expired))},
			{"peak_window_factor", factor},
			{"peak_window_flows", float64(peak)},
		},
	}, true
}

// detectElephantSkew names the elephant's core from its record — the
// placement RSS actually made — and that core's share of flow bytes.
func detectElephantSkew(recs []flowlog.Record, th Thresholds) (Finding, bool) {
	top := flowlog.TopByBytes(recs, 1)
	if len(top) == 0 {
		return Finding{}, false
	}
	elephant := top[0]
	var totalBytes, coreBytes uint64
	for i := range recs {
		r := &recs[i]
		if r.Aggregate {
			continue
		}
		totalBytes += r.Bytes
		if r.Core == elephant.Core {
			coreBytes += r.Bytes
		}
	}
	if totalBytes == 0 {
		return Finding{}, false
	}
	share := float64(elephant.Bytes) / float64(totalBytes)
	if elephant.Bytes < th.MinElephantBytes || share < th.MinElephantShare {
		return Finding{}, false
	}
	coreShare := float64(coreBytes) / float64(totalBytes)
	return Finding{
		Scenario: ElephantSkew,
		Summary: fmt.Sprintf("elephant %s carries %.1f%% of flow bytes; its core %d carries %.1f%%",
			flowlog.FormatKey(elephant.Key), share*100, elephant.Core, coreShare*100),
		Evidence: []Evidence{
			{"top_flow_bytes", float64(elephant.Bytes)},
			{"top_flow_share", share},
			{"elephant_core", float64(elephant.Core)},
			{"elephant_core_share", coreShare},
		},
	}, true
}
