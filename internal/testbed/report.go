// Report assembly: folding the run's ledgers — per-core perf counters,
// per-queue NIC/PMD counters, span attribution, interval snapshots — into
// one telemetry.Report.
package testbed

import (
	"fmt"

	"packetmill/internal/flowlog"
	"packetmill/internal/overload"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
)

// buildReport assembles the telemetry report after a driven run. Core and
// span numbers cover the whole run (trackers attribute from time zero, so
// the coverage self-check is exact); Totals keeps the measurement-window
// view the text reports use.
func (d *DUT) buildReport(res *Result, intervals []telemetry.Interval) *telemetry.Report {
	o := d.Opts
	r := &telemetry.Report{
		Schema: telemetry.Schema,
		Config: telemetry.RunConfig{
			Model:     o.Model.String(),
			Opt:       o.Opt.String(),
			FreqGHz:   o.FreqGHz,
			Cores:     o.Cores,
			NICs:      o.NICs,
			RateGbps:  o.RateGbps,
			Packets:   o.Packets,
			FixedSize: o.FixedSize,
			Seed:      o.Seed,
		},
		Totals: telemetry.Totals{
			Offered:      res.Offered,
			TxWire:       res.TxWire,
			Dropped:      res.Dropped,
			Gbps:         res.Gbps(),
			Mpps:         res.Mpps(),
			DurationNS:   res.Duration,
			Instructions: res.Counters.Instructions,
			BusyCycles:   res.Counters.BusyCycles,
			IPC:          res.Counters.IPC(),
			LLCLoads:     res.Counters.LLCLoads,
			LLCMisses:    res.Counters.LLCLoadMisses,
			TLBMisses:    res.Counters.TLBMisses,
		},
		Drops:     res.DropsByReason.Map(),
		Intervals: intervals,
	}
	if o.Faults != nil && len(o.Faults.Clauses) > 0 {
		r.Config.Faults = fmt.Sprintf("%d clauses", len(o.Faults.Clauses))
	}

	// Latency: full-run totals (see telemetry.LatencyUS for the unit
	// contract). The histogram covers every measured departure, so its
	// percentiles are exact up to bucket width and count/min/mean/max
	// are exact.
	r.LatencyUS = telemetry.LatencyFromHist(res.Latency)

	// Per-core ledgers, full run: the span trackers started at time zero,
	// so attribution must be compared against the same window.
	coreBusy := make([]float64, len(d.Cores))
	for i, c := range d.Cores {
		ct := c.Snapshot()
		coreBusy[i] = ct.BusyCycles
		cr := telemetry.CoreReport{
			Core:          c.ID,
			Instructions:  ct.Instructions,
			BusyCycles:    ct.BusyCycles,
			BusyNS:        ct.BusyCycles / c.FreqGHz,
			IdleNS:        ct.IdleNS,
			WallNS:        ct.WallNS,
			IPC:           ct.IPC(),
			LLCLoads:      ct.LLCLoads,
			LLCLoadMisses: ct.LLCLoadMisses,
			TLBMisses:     ct.TLBMisses,
		}
		if i < len(d.Trackers) {
			cr.AttributedCycles = d.Trackers[i].AttributedCycles()
			if ct.BusyCycles > 0 {
				cr.Coverage = cr.AttributedCycles / ct.BusyCycles
			}
		}
		r.Cores = append(r.Cores, cr)
	}

	// Per-queue ledgers: NIC-side delivery/drop counters merged with the
	// PMD port that polls the queue.
	for c := range d.PortsFor {
		for id := 0; id < o.NICs; id++ {
			port, ok := d.PortsFor[c][id]
			if !ok {
				continue
			}
			rxs := port.Dev.RXStats()
			txs := port.Dev.TXStats()
			r.Queues = append(r.Queues, telemetry.QueueReport{
				NIC:             port.Dev.PortName(),
				Queue:           port.Dev.QueueID(),
				Core:            c,
				RxDelivered:     rxs.Delivered,
				RxBytes:         rxs.Bytes,
				RxDropNoBuf:     rxs.DropNoBuf,
				RxDropFull:      rxs.DropFull,
				RxDropRunt:      rxs.DropRunt,
				TxSent:          txs.Sent,
				TxBytes:         txs.Bytes,
				TxDropFull:      txs.DropFull,
				TxDropTransient: txs.DropTransient,
				TxDropOversize:  txs.DropOversize,
				Polls:           port.Stats.Polls,
				EmptyPolls:      port.Stats.EmptyPolls,
				RxPackets:       port.Stats.RxPackets,
				TxPackets:       port.Stats.TxPackets,
				RefillShort:     port.Stats.RefillShort,
				RefillShortBufs: port.Stats.RefillShortBufs,
				PoolExhausted:   port.Drops.Get(stats.DropPoolExhausted),
				Posted:          uint64(port.Dev.PostedCount()),
				PendingRx:       uint64(port.Dev.PendingCount()),
			})
		}
	}

	// Overload control plane: one entry per core, state names spelled
	// out. WatchdogRestarts is run-level (every engine drains together),
	// so each core entry carries the same count.
	for c, st := range res.Overload {
		timeIn := make(map[string]float64, overload.NumStates)
		for s := overload.State(0); s < overload.NumStates; s++ {
			timeIn[s.String()] = st.TimeInNS[s] / 1e3
		}
		r.Overload = append(r.Overload, telemetry.OverloadCoreReport{
			Core:             c,
			Policy:           st.Policy.String(),
			State:            st.State.String(),
			Transitions:      st.Transitions,
			TimeInUS:         timeIn,
			AdmitOK:          st.AdmitOK,
			Sheds:            st.Sheds,
			Pauses:           st.Pauses,
			PausedUS:         st.PausedNS / 1e3,
			WatchdogRestarts: res.WatchdogRestarts,
		})
	}

	// Flow tables: one entry per (core, element instance) that tracks
	// flows — the NAT's conntrack shard, standalone ConnTrackers. The
	// element fills the ledger; core and instance name are ours.
	for c, rt := range res.Routers {
		if rt == nil {
			continue
		}
		for _, inst := range rt.Instances {
			fr, ok := inst.El.(telemetry.FlowReporter)
			if !ok {
				continue
			}
			cr := fr.FlowReport()
			cr.Core = c
			cr.Element = inst.Name
			r.Conntrack = append(r.Conntrack, cr)
		}
	}

	if d.Opts.FlowLog != nil {
		r.Flows = flowSummaryReport(res.Flows)
	}

	r.BuildSpans(d.Trackers, coreBusy)
	return r
}

// flowSummaryReport maps a record set onto the report's verdict-keyed
// roll-up (telemetry stays free of flowlog's types).
func flowSummaryReport(recs []flowlog.Record) *telemetry.FlowSummary {
	s := flowlog.Summarize(recs)
	fs := &telemetry.FlowSummary{
		Records:         s.Records,
		VerdictFlows:    map[string]uint64{},
		VerdictPackets:  map[string]uint64{},
		VerdictBytes:    map[string]uint64{},
		TxSidePackets:   s.TxSidePackets,
		DropSidePackets: s.DropSidePackets,
		Unattributed:    s.Unattributed,
		LatencySamples:  s.LatSamples,
	}
	for v := flowlog.Verdict(0); v < flowlog.NumVerdicts; v++ {
		if s.Flows[v] == 0 && s.Packets[v] == 0 {
			continue
		}
		fs.VerdictFlows[v.String()] = s.Flows[v]
		fs.VerdictPackets[v.String()] = s.Packets[v]
		fs.VerdictBytes[v.String()] = s.Bytes[v]
	}
	for _, t := range flowlog.TopByBytes(recs, 5) {
		fs.TopFlows = append(fs.TopFlows, telemetry.TopFlow{
			Key:        flowlog.FormatKey(t.Key),
			Verdict:    t.Verdict.String(),
			State:      t.State.String(),
			Packets:    t.Packets,
			Bytes:      t.Bytes,
			DurationUS: t.DurationNS() / 1e3,
			LatAvgUS:   t.LatAvgNS() / 1e3,
		})
	}
	return fs
}
