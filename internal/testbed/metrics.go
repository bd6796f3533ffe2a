// Live metrics: folding the DUT's counters into trace.Snapshot values
// for the -metrics HTTP exporter while a wire session is serving. Every
// counter is single-writer per-core state: core 0 publishes between its
// own steps, and the publish gate quiesces cores 1..N-1 before the
// snapshot. A snapshot is thus built without per-counter locks and
// published as an immutable value; scrape handlers only ever read
// published snapshots.
package testbed

import (
	"encoding/json"
	"strconv"
	"time"

	"packetmill/internal/flowlog"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
	"packetmill/internal/trace"
	"packetmill/internal/xchg"
)

// metricsInterval is the wall-clock cadence at which ServeWire publishes
// fresh snapshots to the exporter.
const metricsInterval = 500 * time.Millisecond

// publishMetrics renders the ledger led, uptime into the session, and
// publishes it when the exporter is attached; a no-op otherwise.
func (d *DUT) publishMetrics(engines []Engine, led *Result, uptime time.Duration) {
	if d.Opts.Metrics == nil {
		return
	}
	d.Opts.Metrics.Publish(d.wireSnapshot(engines, led, uptime))
}

// wireSnapshot renders the exporter view of the session ledger led: port
// counters, the drop taxonomy, queue depths, latency and per-element
// duration histograms, and the full telemetry report as JSON for
// /report.
func (d *DUT) wireSnapshot(engines []Engine, led *Result, uptime time.Duration) *trace.Snapshot {
	snap := &trace.Snapshot{}
	add := func(name, help, typ string, labels [][2]string, v float64) {
		snap.Samples = append(snap.Samples, trace.Sample{
			Name: name, Help: help, Type: typ, Labels: labels, Value: v,
		})
	}
	add("packetmill_uptime_seconds", "Wall time since serving started.",
		"gauge", nil, uptime.Seconds())

	// Port counters and queue depths, in (core, port id) order so the
	// exposition text is deterministic.
	for _, ports := range d.PortsFor {
		for id := 0; id < len(ports); id++ {
			port := ports[id]
			rxs := port.Dev.RXStats()
			txs := port.Dev.TXStats()
			pl := [][2]string{
				{"port", port.Dev.PortName()},
				{"queue", strconv.Itoa(port.Dev.QueueID())},
			}
			add("packetmill_rx_packets_total", "Frames the NIC delivered to the PMD.",
				"counter", pl, float64(rxs.Delivered))
			add("packetmill_rx_bytes_total", "Bytes the NIC delivered to the PMD.",
				"counter", pl, float64(rxs.Bytes))
			add("packetmill_tx_packets_total", "Frames sent on the wire.",
				"counter", pl, float64(txs.Sent))
			add("packetmill_tx_bytes_total", "Bytes sent on the wire.",
				"counter", pl, float64(txs.Bytes))
			add("packetmill_polls_total", "PMD receive polls.",
				"counter", pl, float64(port.Stats.Polls))
			add("packetmill_empty_polls_total", "PMD receive polls that found nothing.",
				"counter", pl, float64(port.Stats.EmptyPolls))
			for _, g := range [...]struct {
				ring string
				n    int
			}{
				{"posted_rx", port.Dev.PostedCount()},
				{"pending_rx", port.Dev.PendingCount()},
				{"inflight_tx", port.Dev.InflightCount()},
			} {
				add("packetmill_queue_depth",
					"Descriptors currently held in a device ring.", "gauge",
					[][2]string{pl[0], pl[1], {"ring", g.ring}}, float64(g.n))
			}
			if cb, ok := d.bindings[port].(*xchg.CustomBinding); ok {
				add("packetmill_xchg_desc_outstanding",
					"X-Change descriptors currently attached to buffers.",
					"gauge", pl, float64(cb.Pool.Outstanding()))
				add("packetmill_xchg_desc_max_outstanding",
					"High-water mark of attached X-Change descriptors.",
					"gauge", pl, float64(cb.Pool.MaxOutstanding))
				add("packetmill_xchg_desc_get_fails_total",
					"X-Change descriptor pool exhaustion events.",
					"counter", pl, float64(cb.Pool.GetFails))
			}
		}
	}
	add("packetmill_tx_backlog", "Packets queued behind full TX rings.",
		"gauge", nil, float64(txBacklog(engines...)))
	// Overload control plane, one series per core (families appear only
	// when the control plane is armed).
	for c, st := range led.Overload {
		cl := [][2]string{{"core", strconv.Itoa(c)}}
		add("packetmill_health_state",
			"Overload health state (0 healthy, 1 degraded, 2 overloaded, 3 recovering).",
			"gauge", cl, float64(st.State))
		add("packetmill_health_transitions_total",
			"Health state-machine transitions.", "counter", cl, float64(st.Transitions))
		add("packetmill_overload_sheds_total",
			"Frames shed by RX admission control.", "counter", cl, float64(st.Sheds))
		add("packetmill_overload_admits_total",
			"Frames admitted past RX admission control.", "counter", cl, float64(st.AdmitOK))
		add("packetmill_backpressure_sources",
			"Stages currently holding backpressure on this core.",
			"gauge", cl, float64(d.Ctls[c].PressureSources()))
		add("packetmill_backpressure_pauses_total",
			"RX pause intervals entered (lossless backpressure).",
			"counter", cl, float64(st.Pauses))
	}
	// Flow tables, one series set per tracking element (families appear
	// only when a stateful element is in the graph, so configs without
	// one keep their exposition unchanged).
	for c, eng := range engines {
		ce, ok := eng.(*clickEngine)
		if !ok {
			continue
		}
		for _, inst := range ce.rt.Instances {
			fr, ok := inst.El.(telemetry.FlowReporter)
			if !ok {
				continue
			}
			crep := fr.FlowReport()
			cl := [][2]string{{"core", strconv.Itoa(c)}, {"element", inst.Name}}
			add("packetmill_conntrack_entries", "Live flow-table entries.",
				"gauge", cl, float64(crep.FlowTableEntries))
			add("packetmill_conntrack_capacity", "Flow-table slab capacity.",
				"gauge", cl, float64(crep.Capacity))
			add("packetmill_conntrack_insertions_total", "Flows admitted to the table.",
				"counter", cl, float64(crep.Insertions))
			add("packetmill_conntrack_expirations_total", "Flows aged out by the timer wheel.",
				"counter", cl, float64(crep.Expirations))
			// Fixed class order keeps the exposition text deterministic.
			for _, class := range [...]string{"embryonic", "transient", "established"} {
				if n, ok := crep.Evictions[class]; ok {
					add("packetmill_conntrack_evictions_total",
						"Flows displaced under table pressure, by eviction class.",
						"counter", [][2]string{cl[0], cl[1], {"class", class}}, float64(n))
				}
			}
			add("packetmill_conntrack_refused_total",
				"Packets refused by the flow table (full or strict-invalid).",
				"counter", cl, float64(crep.RefusedFull+crep.RefusedInvalid))
			add("packetmill_conntrack_wheel_lag_seconds",
				"Worst timer-wheel lag behind the element clock.",
				"gauge", cl, crep.WheelLagUS/1e6)
			if crep.PortsInUse > 0 || crep.PortsRecycled > 0 {
				add("packetmill_nat_ports_in_use", "External NAT ports currently allocated.",
					"gauge", cl, float64(crep.PortsInUse))
				add("packetmill_nat_ports_recycled_total",
					"External NAT ports returned to the pool by expiry/eviction.",
					"counter", cl, float64(crep.PortsRecycled))
			}
		}
	}
	// Every reason is exported, including zero counts, so dashboards see
	// a stable family the moment the endpoint comes up.
	for r := stats.DropReason(0); r < stats.NumDropReasons; r++ {
		add("packetmill_drops_total", "Frames lost, by drop taxonomy reason.",
			"counter", [][2]string{{"reason", r.String()}}, float64(led.DropsByReason.Get(r)))
	}
	// Flow records: verdict roll-ups, top flows, and the /flows body
	// (families appear only when flow logging is armed).
	if d.Opts.FlowLog != nil {
		sum := flowlog.Summarize(led.Flows)
		// One family at a time: the exposition format requires a family's
		// samples to stay contiguous.
		for v := flowlog.Verdict(0); v < flowlog.NumVerdicts; v++ {
			add("packetmill_flow_records", "Flow records in the current cut, by verdict.",
				"gauge", [][2]string{{"verdict", v.String()}}, float64(sum.Flows[v]))
		}
		for v := flowlog.Verdict(0); v < flowlog.NumVerdicts; v++ {
			add("packetmill_flow_packets_total", "Packets attributed to flow records, by verdict.",
				"counter", [][2]string{{"verdict", v.String()}}, float64(sum.Packets[v]))
		}
		for v := flowlog.Verdict(0); v < flowlog.NumVerdicts; v++ {
			add("packetmill_flow_bytes_total", "Bytes attributed to flow records, by verdict.",
				"counter", [][2]string{{"verdict", v.String()}}, float64(sum.Bytes[v]))
		}
		add("packetmill_flow_records_lost_total",
			"Closed-flow records rolled into aggregates because a per-core ring wrapped.",
			"counter", nil, float64(d.Opts.FlowLog.RecordsLost()))
		sampled, misses := d.Opts.FlowLog.LatencySampled()
		add("packetmill_flow_latency_samples_total",
			"TX depart-hook latency samples folded into live flows.",
			"counter", nil, float64(sampled))
		add("packetmill_flow_latency_misses_total",
			"TX depart-hook samples whose flow was no longer in any table.",
			"counter", nil, float64(misses))
		for rank, t := range flowlog.TopByBytes(led.Flows, 5) {
			add("packetmill_flow_top_bytes", "Largest flows of the current cut, by bytes.",
				"gauge", [][2]string{
					{"rank", strconv.Itoa(rank + 1)},
					{"flow", flowlog.FormatKey(t.Key)},
					{"verdict", t.Verdict.String()},
				}, float64(t.Bytes))
		}
		snap.FlowsJSONL = flowlog.JSONL(led.Flows)
	}

	if led.Latency.Count() > 0 {
		snap.Hists = append(snap.Hists, trace.PromHist(
			"packetmill_latency_seconds",
			"One-way RX-arrival to TX-departure latency through the DUT.",
			nil, led.Latency))
	}
	for c, t := range d.Trackers {
		for _, b := range t.Buckets() {
			if b.Dur.Count() == 0 {
				continue
			}
			snap.Hists = append(snap.Hists, trace.PromHist(
				"packetmill_element_duration_seconds",
				"Per-visit exclusive element duration.",
				[][2]string{
					{"core", strconv.Itoa(c)},
					{"element", b.Name},
					{"stage", b.Stage.String()},
				}, b.Dur))
		}
	}

	if d.Opts.Telemetry {
		// Unmarshalable only on a bug; the exporter then serves "{}".
		snap.ReportJSON, _ = json.Marshal(d.buildReport(led, nil))
	}
	return snap
}
