// The conservation ledger: the one fold of a DUT's counters into
// offered frames, TX, and drops by reason. The simulated driver, the wire
// session, /metrics, /report, the flow-record cut, and the text report
// all read it, so they cannot disagree.
package testbed

import (
	"time"

	"packetmill/internal/click"
	"packetmill/internal/machine"
	"packetmill/internal/overload"
	"packetmill/internal/stats"
	"packetmill/internal/trace"
)

// ledger folds the DUT's device, PMD, and engine counters into a Result.
// It reads only counters both backends implement: the per-queue
// RXStats/TXStats, each PMD port's Drops, and the engines' DropStats.
//
//   - Offered is every frame a device received or dropped on RX, plus
//     pre: the drops the caller alone saw before the MAC (the fault
//     engine's wire drops), which also join DropsByReason.
//   - TxWire, Packets, and Bytes are what the devices sent; Latency
//     merges the ports' end-to-end histograms (empty unless telemetry or
//     the exporter installed them).
//   - A TX ring refusal (TXQueueStats.DropFull) is not a drop: the PMD
//     retries it from the element backlog, which books tx-ring-full
//     itself when it overflows.
//
// It also fills the per-core views every surface renders from: Routers
// (nil for non-Click engines, so the index stays the core), Counters
// (the sum of window, each core's counters over the measurement
// window), the overload status at nowNS, the stall rules' restarts, and
// the flow-record cut, reconciled against this same ledger.
func (d *DUT) ledger(engines []Engine, nowNS float64, pre *stats.DropCounters,
	window []machine.Counters) *Result {
	res := &Result{Latency: trace.NewHist()}
	drops := &res.DropsByReason
	if pre != nil {
		drops.Merge(pre)
		res.Offered = pre.Total()
	}
	for _, ports := range d.PortsFor {
		for id := 0; id < len(ports); id++ {
			port := ports[id]
			rxs, txs := port.Dev.RXStats(), port.Dev.TXStats()
			res.Offered += rxs.Delivered + rxs.DropNoBuf + rxs.DropFull + rxs.DropRunt
			res.TxWire += txs.Sent
			res.Bytes += txs.Bytes
			drops.Add(stats.DropRxNoBuf, rxs.DropNoBuf)
			drops.Add(stats.DropRxRingFull, rxs.DropFull)
			drops.Add(stats.DropRxRunt, rxs.DropRunt)
			drops.Add(stats.DropTxError, txs.DropError)
			drops.Add(stats.DropTxTransient, txs.DropTransient)
			drops.Add(stats.DropTxOversize, txs.DropOversize)
			drops.Merge(&port.Drops)
			res.Latency.Merge(port.LatHist)
		}
	}
	for _, e := range engines {
		if ds, ok := e.(dropStatser); ok {
			drops.Merge(ds.DropStats())
		}
		var rt *click.Router
		if ce, ok := e.(*clickEngine); ok {
			rt = ce.rt
		}
		res.Routers = append(res.Routers, rt)
	}
	res.Packets = res.TxWire
	res.Dropped = drops.Total()
	for _, ct := range window {
		res.Counters.Add(ct)
	}
	for _, ctl := range d.Ctls {
		res.Overload = append(res.Overload, ctl.Status(nowNS))
	}
	for _, r := range d.stalls { // restarts need the control plane
		res.WatchdogRestarts += r.restarts.Load()
	}
	if d.Opts.FlowLog != nil {
		res.Flows = d.Opts.FlowLog.Records(drops, res.TxWire)
	}
	return res
}

// WireResult returns the ledger of the DUT's last finished wire session:
// the Result every surface of that session rendered from. Nil before a
// session ends.
func (d *DUT) WireResult() *Result { return d.wireRes }

// wireResult is a wire session's ledger at wall offset now. Its window
// (Duration, Counters) spans the first to the last round that moved
// packets, across cores, leaving out the idle stretches around them.
func (d *DUT) wireResult(engines []Engine, loops []*coreLoop, now time.Duration) *Result {
	window := make([]machine.Counters, len(loops))
	first, last := float64(now), 0.0
	for i, cl := range loops {
		if cl.first >= 0 {
			window[i] = cl.end.Delta(cl.base)
			first, last = min(first, float64(cl.first)), max(last, cl.stall.lastNS())
		}
	}
	res := d.ledger(engines, float64(now), nil, window)
	res.Duration = max(last-first, 0)
	return res
}

// observer paces one core's overload observations: a few times per
// dwell window it feeds the core's controller fresh signals. Both
// drivers step it, the simulated one on simulated time and the wire loop
// on wall time. Empty-poll rates are deltas between observations, so the
// last-seen poll counters ride along.
type observer struct {
	every, next  float64
	polls, empty uint64
}

// newObserver returns core c's observer; it never fires when the
// control plane is off.
func (d *DUT) newObserver(c int) observer {
	ctl := d.Ctl(c)
	if ctl == nil {
		return observer{}
	}
	// A quarter dwell sees fresh signals without perturbing the
	// steady-state loop.
	every := ctl.DwellNS() / 4
	if every <= 0 {
		every = 12.5e3
	}
	return observer{every: every}
}

// step observes core c at now when its cadence is due: worst ring/queue
// occupancy, the empty-poll rate since the last observation, and the
// latency p99.
func (ob *observer) step(d *DUT, eng Engine, c int, now float64) {
	if ob.every <= 0 || now < ob.next {
		return
	}
	ob.next = now + ob.every
	var occ, p99 float64
	var polls, empty uint64
	for _, port := range d.PortsFor[c] {
		dev := port.Dev
		if f := float64(dev.PendingCount()) / float64(dev.RXRingSize()); f > occ {
			occ = f
		}
		if f := float64(dev.InflightCount()) / float64(dev.TXRingSize()); f > occ {
			occ = f
		}
		polls += port.Stats.Polls
		empty += port.Stats.EmptyPolls
		if port.LatHist != nil {
			if v := port.LatHist.Quantile(0.99); v > p99 {
				p99 = v
			}
		}
	}
	if oc, ok := eng.(occupier); ok {
		if f := oc.Occupancy(); f > occ {
			occ = f
		}
	}
	var emptyRate float64
	if dp := polls - ob.polls; dp > 0 {
		emptyRate = float64(empty-ob.empty) / float64(dp)
	}
	ob.polls, ob.empty = polls, empty
	d.Ctl(c).Observe(now, overload.Signals{Occupancy: occ, EmptyPollRate: emptyRate, P99NS: p99})
}
