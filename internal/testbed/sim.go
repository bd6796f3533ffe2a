// The simulated driver: the two-node harness that offers seeded traffic
// to the DUT's simulated adapters over 100-GbE links and steps every core
// on the simulated calendar — always the core furthest behind, idle cores
// fast-forwarded to their next event — until the sources drain. It
// measures the way the paper's generator server does (wire-to-wire
// latency and throughput past a warmup prefix), injects the fault
// schedule between the generator and the MAC, and judges progress with
// the stall rule the wire session shares (testbed.go).
package testbed

import (
	"fmt"
	"math"

	"packetmill/internal/click"
	"packetmill/internal/faults"
	"packetmill/internal/machine"
	"packetmill/internal/overload"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
	"packetmill/internal/trace"
	"packetmill/internal/trafficgen"
)

// snapshotIntervalNS paces the telemetry interval snapshots (100 µs of
// simulated time).
const snapshotIntervalNS = 100e3

// simStallBoundNS is the simulated driver's stall bound: 50 simulated
// ms without progress while work is pending. It must exceed any
// injected stall or flap window. A variable so a test can lower it.
var simStallBoundNS = 50e6

// Run assembles a DUT, builds the Click configuration, offers traffic,
// and measures. This is the single entry point the experiments and the
// CLI use.
func Run(config string, o Options) (*Result, error) {
	g, err := click.Parse(config)
	if err != nil {
		return nil, err
	}
	return RunGraph(g, o)
}

// RunGraph is Run for an already-parsed (possibly mill-transformed) graph.
func RunGraph(g *click.Graph, o Options) (*Result, error) {
	o = o.withDefaults()
	d, err := NewDUT(o)
	if err != nil {
		return nil, err
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		return nil, err
	}
	res, err := d.Drive(clickEngines(routers))
	if err != nil {
		return nil, err
	}
	if o.Profile && len(routers) > 0 {
		res.Prof = routers[0].Prof
	}
	return res, nil
}

// RunEngines assembles a DUT and drives one custom engine per core —
// the entry point for the non-Click baselines (BESS, VPP, l2fwd).
func RunEngines(o Options, build func(d *DUT, core int) (Engine, error)) (*Result, error) {
	o = o.withDefaults()
	d, err := NewDUT(o)
	if err != nil {
		return nil, err
	}
	engines := make([]Engine, o.Cores)
	for c := 0; c < o.Cores; c++ {
		if engines[c], err = build(d, c); err != nil {
			return nil, err
		}
	}
	return d.Drive(engines)
}

// srcHead is the pending head frame of one traffic source.
type srcHead struct {
	frame []byte
	ns    float64
	ok    bool
}

// driver holds one Drive run's state. It replaces the closure nest the
// loop used to be built from: the per-depart probe and the per-iteration
// helpers are methods, so the steady-state path carries no captured-
// variable indirection and allocates nothing per poll.
type driver struct {
	d       *DUT
	o       Options
	engines []Engine

	// Fault engine (nil in clean runs) and wire-level drop ledger.
	fe        *faults.Engine
	wireDrops stats.DropCounters

	// Traffic sources and their pending head frames.
	sources []trafficgen.Source
	heads   []srcHead
	buf     [][]byte // owned copies of head frames
	offered uint64

	// Measurement probes. lat is the wire-to-wire latency histogram
	// (Result.Latency) over the departures after the warmup prefix, the
	// first Packets/10.
	lat            *trace.Hist
	departed       uint64
	measuredPkts   uint64
	measuredBytes  uint64
	measureStartNS float64
	lastDepartNS   float64
	startCounters  []machine.Counters
	warmup         uint64

	// Interval snapshots: occupancy + progress sampled on the simulated
	// clock, so transients (fault windows, ring shrink) stay visible.
	intervals    []telemetry.Interval
	nextSampleNS float64
	lastSampleNS float64
	lastSampleTx uint64

	// Overload control plane: one observer per core and the per-class
	// latency probes.
	observers []observer
	classLat  []*trace.Hist
	stall     stallRule // over every core, on the simulated clock
}

// pull advances source n to its next frame.
func (dr *driver) pull(n int) {
	f, ns, ok := dr.sources[n].Next()
	if ok {
		if dr.buf[n] == nil {
			dr.buf[n] = make([]byte, 2048)
		}
		copy(dr.buf[n], f)
		dr.heads[n] = srcHead{frame: dr.buf[n][:len(f)], ns: ns, ok: true}
	} else {
		dr.heads[n] = srcHead{}
	}
}

// deliverUntil pushes every frame that has arrived by time t into the
// NICs (RSS-spread across core queues). Wire-level faults apply here,
// between the generator and the DUT's MAC: a frame is counted as offered
// first, then may be consumed (drop, link-down) or mutated (corruption,
// truncation) before the NIC sees it.
func (dr *driver) deliverUntil(t float64) {
	for n := range dr.heads {
		for dr.heads[n].ok && dr.heads[n].ns <= t {
			frame, ns := dr.heads[n].frame, dr.heads[n].ns
			dr.offered++
			if dr.fe != nil {
				wr := dr.fe.Wire(frame, ns)
				if wr.Dropped {
					dr.wireDrops.Add(wr.Reason, 1)
					dr.pull(n)
					continue
				}
				frame = wr.Frame
			}
			if dr.o.RxTap != nil {
				dr.o.RxTap(n, frame, ns)
			}
			// RSS hashes the frame as received — a corrupted header
			// steers to whatever queue the flipped bits select, as on
			// real hardware.
			q := dr.d.NICs[n].RSSQueue(frame)
			dr.d.NICs[n].Deliver(q, frame, ns)
			dr.pull(n)
		}
	}
}

func (dr *driver) nextArrival() float64 {
	t := math.Inf(1)
	for n := range dr.heads {
		if dr.heads[n].ok && dr.heads[n].ns < t {
			t = dr.heads[n].ns
		}
	}
	return t
}

// onDepart is the NICs' departure probe: latency/throughput measurement
// past the warmup prefix, plus the optional user tap (which observes
// every departure, warmup included).
func (dr *driver) onDepart(p *pktbuf.Packet, departNS float64) {
	dr.departed++
	if dr.departed > dr.warmup {
		if dr.measureStartNS < 0 {
			dr.measureStartNS = departNS
			for i, c := range dr.d.Cores {
				dr.startCounters[i] = c.Snapshot()
			}
		}
		dr.lat.Record(departNS - p.ArrivalNS)
		if dr.classLat != nil {
			dr.classLat[overload.ClassOf(p.Bytes())].Record(departNS - p.ArrivalNS)
		}
		dr.measuredPkts++
		dr.measuredBytes += uint64(p.Len())
		if departNS > dr.lastDepartNS {
			dr.lastDepartNS = departNS
		}
	}
	if dr.o.Tap != nil {
		dr.o.Tap(p.Bytes(), departNS)
	}
}

func (dr *driver) sourcesDone() bool {
	for n := range dr.heads {
		if dr.heads[n].ok {
			return false
		}
	}
	return true
}

func (dr *driver) sample(now float64) {
	if !dr.o.Telemetry || now < dr.nextSampleNS {
		return
	}
	var pendRx, posted uint64
	for _, ports := range dr.d.PortsFor {
		for id := 0; id < len(ports); id++ {
			pendRx += uint64(ports[id].Dev.PendingCount())
			posted += uint64(ports[id].Dev.PostedCount())
		}
	}
	iv := telemetry.Interval{
		TNS:       now,
		Offered:   dr.offered,
		TxWire:    dr.departed,
		PendingRx: pendRx,
		TxBacklog: uint64(txBacklog(dr.engines...)),
		Posted:    posted,
	}
	if dt := now - dr.lastSampleNS; dt > 0 {
		iv.Mpps = float64(dr.departed-dr.lastSampleTx) * 1e3 / dt
	}
	dr.intervals = append(dr.intervals, iv)
	dr.lastSampleNS, dr.lastSampleTx = now, dr.departed
	for now >= dr.nextSampleNS {
		dr.nextSampleNS += snapshotIntervalNS
	}
}

// Drive runs the offered load through the engines (one per core) and
// measures. It is exported so non-Click engines (BESS, VPP, l2fwd) reuse
// the same harness.
func (d *DUT) Drive(engines []Engine) (*Result, error) {
	o := d.Opts
	if len(engines) != o.Cores {
		return nil, fmt.Errorf("testbed: %d engines for %d cores", len(engines), o.Cores)
	}

	dr := &driver{
		d:              d,
		o:              o,
		engines:        engines,
		measureStartNS: -1,
		lat:            trace.NewHist(),
		startCounters:  make([]machine.Counters, o.Cores),
		warmup:         uint64(o.Packets / 10),
		nextSampleNS:   snapshotIntervalNS,
	}
	for c := 0; c < o.Cores; c++ {
		dr.observers = append(dr.observers, d.newObserver(c))
	}
	dr.stall = stallRule{bound: simStallBoundNS, heal: len(d.Ctls) > 0}
	d.stalls = []*stallRule{&dr.stall}
	if len(d.Ctls) > 0 {
		dr.classLat = make([]*trace.Hist, overload.NumClasses)
		for i := range dr.classLat {
			dr.classLat[i] = trace.NewHist()
		}
	}

	// Fault engine: built per run, wired into the layers' hooks. A clean
	// run leaves every hook nil, so the only datapath cost of the fault
	// layer is one nil check per hook site.
	if o.Faults != nil && len(o.Faults.Clauses) > 0 {
		seed := o.FaultSeed
		if seed == 0 {
			seed = o.Seed ^ 0x5eedfa17 // distinct stream from the traffic seed
		}
		dr.fe = faults.NewEngine(o.Faults, seed)
		for _, n := range d.NICs {
			n.FaultRxStall = dr.fe.RxStall
			n.FaultTxSlow = dr.fe.TxSlowFactor
		}
		for _, pool := range d.mempools {
			pool.FaultDeplete = dr.fe.DepleteMempool
		}
		for _, ports := range d.PortsFor {
			for _, port := range ports {
				port.FaultDescDeplete = dr.fe.DepleteDesc
			}
		}
		d.traceFaults(dr.fe)
	}

	// Sources: one per NIC.
	dr.sources = make([]trafficgen.Source, o.NICs)
	for n := 0; n < o.NICs; n++ {
		cfg := trafficgen.Config{
			Seed:     o.Seed + uint64(100+n),
			RateGbps: o.RateGbps,
			Count:    o.Packets,
		}
		switch {
		case o.Traffic != nil:
			dr.sources[n] = o.Traffic(n, cfg)
		case o.FixedSize > 0:
			cfg.TCPShare, cfg.UDPShare, cfg.ICMPShare = 0.9, 0.08, 0.02
			dr.sources[n] = trafficgen.NewFixedSize(cfg, o.FixedSize)
		default:
			dr.sources[n] = trafficgen.NewCampus(cfg)
		}
	}
	dr.heads = make([]srcHead, o.NICs)
	dr.buf = make([][]byte, o.NICs)
	for n := range dr.sources {
		dr.pull(n)
	}

	for _, n := range d.NICs {
		n.OnDepart = dr.onDepart
	}

	return dr.run()
}

// run is the main loop plus result assembly: always run the core that is
// furthest behind in simulated time; fast-forward idle cores to the next
// event. The run ends when the sources are drained, every ring is empty,
// every TX backlog has flushed, and every core has gone one full pass
// without work.
func (dr *driver) run() (*Result, error) {
	d, o, engines := dr.d, dr.o, dr.engines

	// Progress is any engine moving, or a frame offered or departed.
	var lastOffered, lastDeparted uint64
	idleStreak := 0
	for {
		ci := 0
		for i, c := range d.Cores {
			if c.NowNS() < d.Cores[ci].NowNS() {
				ci = i
			}
		}
		core := d.Cores[ci]
		now := core.NowNS()
		dr.deliverUntil(now)
		dr.sample(now)
		dr.observers[ci].step(d, engines[ci], ci, now)
		moved := engines[ci].Step(core, now)
		if moved > 0 || dr.offered != lastOffered || dr.departed != lastDeparted {
			dr.stall.progress(now)
			lastOffered, lastDeparted = dr.offered, dr.departed
		}
		if moved > 0 {
			idleStreak = 0
			continue
		}
		idleStreak++
		pending := !dr.sourcesDone()
		for c := 0; !pending && c < len(engines); c++ {
			pending = d.busy(c, engines[c])
		}
		switch dr.stall.judge(now, pending) {
		case restart:
			// The simulated driver restarts every core together.
			for i, e := range engines {
				d.drainRestart(i, e, d.Cores[i].NowNS(), now)
			}
			continue
		case stalled:
			return nil, &StallError{Core: -1, NowNS: now,
				LastProgressNS: dr.stall.lastNS(), Snapshot: d.snapshot(engines)}
		}
		if !pending {
			if idleStreak > 2*o.Cores {
				break
			}
			core.Idle(now + 100)
			continue
		}
		// Jump to the next interesting time for this core.
		next := dr.nextArrival()
		for id, ports := 0, d.PortsFor[ci]; id < len(ports); id++ {
			if r := ports[id].Dev.NextReadyNS(); r < next {
				next = r
			}
		}
		if next > now && !math.IsInf(next, 1) {
			core.Idle(next)
		} else {
			// The work belongs to another core's queue (or is a TX
			// backlog waiting for the wire); step time forward a touch
			// so it gets another chance.
			core.Idle(now + 100)
		}
	}

	end := 0.0
	for _, c := range d.Cores {
		end = max(end, c.NowNS())
	}
	// The ledger books everything the devices, PMDs, and engines saw;
	// only the fault engine's pre-MAC drops are the driver's own. The
	// measurement window (post-warmup departures) replaces the ledger's
	// whole-run Packets, Bytes, and Latency.
	window := make([]machine.Counters, len(d.Cores))
	for i, c := range d.Cores {
		window[i] = c.Snapshot().Delta(dr.startCounters[i])
	}
	res := d.ledger(engines, end, &dr.wireDrops, window)
	res.Packets = dr.measuredPkts
	res.Bytes = dr.measuredBytes
	res.Latency = dr.lat
	if dr.lastDepartNS > dr.measureStartNS && dr.measureStartNS >= 0 {
		res.Duration = dr.lastDepartNS - dr.measureStartNS
	}
	if dr.fe != nil {
		st := dr.fe.Injected
		res.FaultStats = &st
	}
	if len(d.Ctls) > 0 {
		res.ClassLat = dr.classLat
	}
	if o.Telemetry {
		res.Telemetry = d.buildReport(res, dr.intervals)
	}
	return res, nil
}

// traceFaults mirrors fault-engine activations into the flight
// recorder: each hook is wrapped with an edge detector so a fault
// *window* appends one event when it opens, not one per packet that
// hits it. No-op when tracing is off.
func (d *DUT) traceFaults(fe *faults.Engine) {
	if d.Opts.Trace == nil {
		return
	}
	rec := d.Opts.Trace
	for _, n := range d.NICs {
		nn := n
		stalled := make([]bool, d.Opts.Cores)
		nn.FaultRxStall = func(q int, ns float64) float64 {
			until := fe.RxStall(q, ns)
			active := until > ns
			if active && q < len(stalled) && !stalled[q] {
				rec.Core(q).Fault("rx-stall")
			}
			if q < len(stalled) {
				stalled[q] = active
			}
			return until
		}
		var slowed bool
		nn.FaultTxSlow = func(ns float64) float64 {
			f := fe.TxSlowFactor(ns)
			active := f > 1
			if active && !slowed {
				// The hook carries no queue, so the event lands on the
				// first core's timeline.
				rec.Core(0).Fault("tx-slow")
			}
			slowed = active
			return f
		}
	}
	edge := func(h func(float64) bool, ct *trace.CoreTrace, name string) func(float64) bool {
		var active bool
		return func(ns float64) bool {
			hit := h(ns)
			if hit && !active {
				ct.Fault(name)
			}
			active = hit
			return hit
		}
	}
	for c, ports := range d.PortsFor {
		ct := rec.Core(c)
		for _, port := range ports {
			if pool := d.mempools[port]; pool != nil && pool.FaultDeplete != nil {
				pool.FaultDeplete = edge(pool.FaultDeplete, ct, "mempool-deplete")
			}
			if port.FaultDescDeplete != nil {
				port.FaultDescDeplete = edge(port.FaultDescDeplete, ct, "desc-deplete")
			}
		}
	}
}
