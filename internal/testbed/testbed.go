// Package testbed is the two-node experiment harness (the repository's
// NPF): a packet generator wired to a device under test over simulated
// 100-GbE links. It assembles the DUT — machine, NICs, DPDK ports with
// the binding matching the chosen metadata model, and the engine under
// test — offers load, and measures end-to-end latency and throughput the
// way the paper's generator server does.
package testbed

import (
	"fmt"
	"math"
	"os"
	"strings"

	"packetmill/internal/cache"
	"packetmill/internal/click"
	"packetmill/internal/dpdk"
	"packetmill/internal/faults"
	"packetmill/internal/flowlog"
	"packetmill/internal/layout"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/nic"
	"packetmill/internal/overload"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
	"packetmill/internal/trace"
	"packetmill/internal/trafficgen"
	"packetmill/internal/xchg"
)

// Engine is anything the testbed can drive: a Click router, a BESS/VPP
// pipeline, or a raw DPDK application.
type Engine interface {
	// Step runs one scheduling round on core at time now; returns the
	// number of packets moved (0 = idle poll).
	Step(core *machine.Core, now float64) int
}

// Options configures a run.
type Options struct {
	// FreqGHz is the DUT core frequency (the paper sweeps 1.2–3.0).
	FreqGHz float64
	// Cores is the DUT core count (RSS spreads flows across them).
	Cores int
	// NICs is the adapter count (Figure 5b uses two).
	NICs int
	// Model selects the metadata-management model.
	Model click.MetadataModel
	// Opt selects the PacketMill source-code optimizations.
	Opt click.OptLevel
	// MetaLayout overrides the framework descriptor layout (reorder pass).
	MetaLayout *layout.Layout
	// Profile records the metadata access profile during the run.
	Profile bool

	// RateGbps is the offered wire rate per NIC.
	RateGbps float64
	// Packets is the per-NIC frame count to offer.
	Packets int
	// Traffic builds the per-NIC source; nil defaults to the campus mix.
	Traffic func(nicID int, cfg trafficgen.Config) trafficgen.Source
	// FixedSize, when >0 and Traffic is nil, offers fixed-size frames.
	FixedSize int

	// DescPool sizes the X-Change descriptor pool (default 64 ≈ burst +
	// software queue, per §3.1).
	DescPool int
	// DescPoolFIFO recycles descriptors in FIFO order (ablation: cycling
	// like mbufs instead of staying warm).
	DescPoolFIFO bool
	// NICConfig overrides the adapter model; nil uses the ConnectX-5
	// defaults.
	NICConfig *nic.Config
	// DDIOWays overrides the LLC's DDIO window width (0 = default 8).
	DDIOWays int
	// NoLTO turns off conversion-function inlining (on by default).
	NoLTO bool
	// VectorizedPMD enables the SIMD receive path (compressed CQEs);
	// rejected under the X-Change model, like the paper's prototype.
	VectorizedPMD bool

	// Tap, when set, observes every frame that leaves the DUT (after the
	// latency probe) — the hook differential verification uses.
	Tap func(frame []byte, departNS float64)

	// RxTap, when set, observes every frame presented to a DUT NIC
	// *after* fault injection (survivors of the injected wire faults,
	// runts included). The chaos harness records this schedule and
	// replays it through a clean DUT to check fault/clean equivalence.
	// The frame buffer is reused; observers must copy.
	RxTap func(nicID int, frame []byte, ns float64)

	// Faults is the fault schedule injected into the run (see
	// internal/faults); nil or empty runs clean.
	Faults *faults.Schedule
	// FaultSeed seeds the fault engine; 0 derives it from Seed.
	FaultSeed uint64
	// WatchdogNS is the stall watchdog: the run fails with *StallError
	// when work is pending but nothing has progressed for this much
	// simulated time. 0 picks the 50 ms default; negative disables. It
	// must exceed any injected stall/flap window.
	WatchdogNS float64

	// Telemetry enables the observability layer: per-core span trackers
	// on every router, per-queue counters, interval snapshots (every
	// snapshotIntervalNS of simulated time), and a full telemetry.Report
	// on the Result.
	Telemetry bool

	// Trace, when non-nil, arms the per-packet flight recorder: the PMD
	// samples 1-in-N received packets deterministically and every stage
	// and element they traverse (plus drops and fault injections) lands
	// in a fixed per-core event ring, exportable as Chrome trace JSON.
	// Tracing implies span trackers even when Telemetry is off (the
	// report is still only built under Telemetry).
	Trace *trace.Recorder
	// StallTracePath, when set together with Trace, is where the
	// watchdog writes the flight-recorder dump when it kills a stalled
	// run — the post-mortem for a StallError.
	StallTracePath string
	// Metrics, when non-nil, is the live exporter: ServeWire publishes
	// periodic snapshots (port counters, drop taxonomy, queue depths,
	// latency histograms) to its /metrics and /report endpoints.
	Metrics *trace.MetricsServer

	// Overload, when non-nil, arms the per-core overload control plane:
	// admission shedding at the PMD RX boundary, backpressure for
	// lossless pipelines, and the self-healing health state machine. The
	// watchdog escalates stalls to drain-and-restart before failing.
	Overload *overload.Config

	// FlowLog, when non-nil, arms the flow-record pipeline: stateful
	// elements (ConnTracker, IPRewriter) bind per-core flow logs, the
	// PMD's TX depart hook samples per-flow latency, and the run's flow
	// records land on Result.Flows (and, with Metrics, on /flows).
	FlowLog *flowlog.Collector

	Seed uint64
}

// Run parameters no caller varies.
const (
	// mempoolSlack sizes each per-port DPDK mempool beyond its RX ring.
	mempoolSlack = 2048
	// snapshotIntervalNS paces the telemetry interval snapshots (100 µs
	// of simulated time).
	snapshotIntervalNS = 100e3
)

func (o Options) withDefaults() Options {
	if o.FreqGHz == 0 {
		o.FreqGHz = 2.3
	}
	if o.Cores <= 0 {
		o.Cores = 1
	}
	if o.NICs <= 0 {
		o.NICs = 1
	}
	if o.RateGbps == 0 {
		o.RateGbps = 100
	}
	if o.Packets == 0 {
		o.Packets = 50000
	}
	if o.DescPool == 0 {
		o.DescPool = 64
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is everything a run measured.
type Result struct {
	stats.Throughput
	// Latency is the wire-to-wire latency histogram over the
	// measurement window (post-warmup departures; a wire session has no
	// warmup and records latency only with telemetry or the exporter
	// on). Percentiles carry the
	// histogram's ≤3% bucket quantization; count, min, mean, and max are
	// exact.
	Latency *trace.Hist
	// Counters is the perf delta over the measurement window (the whole
	// session on the wire), aggregated across cores (LLC counters are
	// system-wide).
	Counters machine.Counters
	// Offered is the total frames offered; Dropped the frames lost at
	// the NIC or inside the engine (Dropped == DropsByReason.Total()).
	Offered uint64
	Dropped uint64
	// TxWire counts frames that left the DUT on the wire (warmup
	// included). Conservation holds for every run, faulted or clean:
	// Offered == TxWire + DropsByReason.Total().
	TxWire uint64
	// DropsByReason attributes every lost frame to its drop reason.
	DropsByReason stats.DropCounters
	// FaultStats reports what the fault engine injected (nil when the
	// run was clean).
	FaultStats *faults.InjectedStats
	// Prof is the metadata access profile (when Options.Profile).
	Prof *layout.OrderProfile
	// Routers are the per-core built engines (for inspection), nil for
	// a core whose engine is not a Click router.
	Routers []*click.Router
	// Telemetry is the full observability report (when Options.Telemetry).
	Telemetry *telemetry.Report
	// Overload is the per-core control-plane status (when Options.Overload).
	Overload []overload.CoreStatus
	// WatchdogRestarts counts drain-and-restart recoveries the watchdog
	// performed instead of failing the run.
	WatchdogRestarts uint64
	// ClassLat are per-traffic-class wire-to-wire latency histograms
	// (when Options.Overload), indexed by overload.ClassOf.
	ClassLat []*trace.Hist
	// Flows are the run's flow records (when Options.FlowLog),
	// reconciled against the conservation invariant.
	Flows []flowlog.Record
}

// DUT is an assembled device under test, reusable across the build-run
// plumbing of cmd/packetmill and the experiments.
type DUT struct {
	Opts Options
	Mach *machine.Machine
	// Machs holds one machine per core on the multicore wire path, where
	// cores run as concurrent goroutines and the simulated memory
	// hierarchy (a single-threaded model) cannot be shared. The simulated
	// DUT steps cores from one goroutine and keeps them all on Mach, so
	// Machs has a single entry there.
	Machs  []*machine.Machine
	Cores  []*machine.Core
	NICs   []*nic.NIC
	Huge   *memsim.Arena
	Static *memsim.Arena
	Heap   *memsim.Heap
	// PortsFor maps (core, click PORT number) to PMD ports: core-indexed
	// slice of maps.
	PortsFor []map[int]*dpdk.Port
	// pools/bindings for recycling.
	mempools map[*dpdk.Port]*dpdk.Mempool
	bindings map[*dpdk.Port]xchg.Binding
	// rawBufTotal counts raw X-Change buffers carved at build time; the
	// post-run leak audit reconciles spare lists and rings against it.
	rawBufTotal int
	// Trackers are the per-core telemetry span trackers (nil entries when
	// telemetry is off). BuildRouters installs them into the routers.
	Trackers []*telemetry.Tracker
	// Ctls are the per-core overload controllers (empty when the control
	// plane is off). NewDUT attaches them to every PMD port and
	// BuildRouters installs them into the routers.
	Ctls []*overload.Controller
	// wireRes is the ledger of the last finished wire session
	// (WireResult).
	wireRes *Result
	// bells holds each wire core's doorbell, registered on that core's
	// devices (NewWireDUTPerCore).
	bells []chan struct{}
}

// machFor returns core c's machine: its own on the multicore wire path,
// the shared one everywhere else.
func (d *DUT) machFor(c int) *machine.Machine {
	if c < len(d.Machs) {
		return d.Machs[c]
	}
	return d.Mach
}

// Ctl returns core c's overload controller, or nil when the control
// plane is off — every consumer is nil-safe.
func (d *DUT) Ctl(c int) *overload.Controller {
	if c < len(d.Ctls) {
		return d.Ctls[c]
	}
	return nil
}

// NewDUT assembles machine, NICs, and per-core PMD ports according to the
// metadata model.
func NewDUT(o Options) (*DUT, error) {
	o = o.withDefaults()
	memCfg := cache.DefaultSystemConfig()
	if o.DDIOWays > 0 {
		memCfg.DDIOWays = o.DDIOWays
	}
	mach := machine.New(memCfg, machine.DefaultCostModel())
	d := &DUT{
		Opts:     o,
		Mach:     mach,
		Machs:    []*machine.Machine{mach},
		Huge:     memsim.NewArena("hugepages", memsim.HugeBase, 1<<30),
		Static:   memsim.NewArena("static", memsim.StaticBase, 512<<20),
		Heap:     memsim.NewHeap(),
		mempools: map[*dpdk.Port]*dpdk.Mempool{},
		bindings: map[*dpdk.Port]xchg.Binding{},
	}
	for c := 0; c < o.Cores; c++ {
		core := mach.AddCore(o.FreqGHz)
		d.Cores = append(d.Cores, core)
		d.PortsFor = append(d.PortsFor, map[int]*dpdk.Port{})
		// Tracing rides on the tracker's span seam, so it needs the
		// trackers even when no report will be built.
		if o.Telemetry || o.Trace != nil {
			d.Trackers = append(d.Trackers, telemetry.NewTracker(core))
		} else {
			d.Trackers = append(d.Trackers, nil)
		}
	}
	for n := 0; n < o.NICs; n++ {
		cfg := nic.DefaultConfig(fmt.Sprintf("nic%d", n))
		if o.NICConfig != nil {
			cfg = *o.NICConfig
			cfg.Name = fmt.Sprintf("nic%d", n)
		}
		cfg.NumQueues = o.Cores
		d.NICs = append(d.NICs, nic.New(cfg, mach.Sys, d.Huge))
	}

	// One PMD port per (core, NIC): queue c of NIC n appears as Click
	// PORT n on core c.
	for c := 0; c < o.Cores; c++ {
		for n := 0; n < o.NICs; n++ {
			port, err := d.buildPort(n, c)
			if err != nil {
				return nil, err
			}
			d.PortsFor[c][n] = port
		}
	}
	d.buildControllers()
	d.attachTrace()
	return d, nil
}

// buildControllers materializes one overload controller per core (when
// configured) and attaches it to the core's PMD ports. Each core gets
// its own seeded RED stream, and health transitions land on the core's
// flight-recorder timeline when tracing is armed.
func (d *DUT) buildControllers() {
	o := d.Opts
	if o.Overload == nil {
		return
	}
	for c := 0; c < o.Cores; c++ {
		cfg := *o.Overload
		if cfg.Seed == 0 {
			cfg.Seed = o.Seed
		}
		cfg.Seed += uint64(c)
		if o.Trace != nil {
			ct := o.Trace.Core(c)
			user := cfg.OnTransition
			cfg.OnTransition = func(nowNS float64, from, to overload.State) {
				ct.Health(to.String())
				if user != nil {
					user(nowNS, from, to)
				}
			}
		}
		d.Ctls = append(d.Ctls, overload.New(cfg))
	}
	for c := range d.PortsFor {
		for _, port := range d.PortsFor[c] {
			port.Overload = d.Ctls[c]
		}
	}
}

// attachTrace binds each core's flight recorder to its clock, its span
// tracker, and its PMD ports. Also installs the per-port end-to-end
// latency histogram when telemetry is on, and the flow log's TX depart
// hook when flow logging is armed.
func (d *DUT) attachTrace() {
	for c, core := range d.Cores {
		if d.Opts.Telemetry || d.Opts.Metrics != nil {
			for _, port := range d.PortsFor[c] {
				port.LatHist = trace.NewHist()
			}
		}
		if d.Opts.FlowLog != nil {
			fc := d.Opts.FlowLog.Core(c)
			for _, port := range d.PortsFor[c] {
				port.OnTxLat = fc.NoteDepart
			}
		}
		if d.Opts.Trace == nil {
			continue
		}
		ct := d.Opts.Trace.Core(c)
		ct.SetClock(core.NowNS)
		d.Trackers[c].SetTrace(ct)
		for _, port := range d.PortsFor[c] {
			port.Trace = ct
		}
	}
}

// buildPort creates queue `queue` of NIC `nicID` as a PMD port with the
// binding the metadata model calls for, fully posted.
func (d *DUT) buildPort(nicID, queue int) (*dpdk.Port, error) {
	return d.buildPortOn(nicID, d.NICs[nicID].Port(queue))
}

// buildPortOn wires a PMD port with buffers and the model's binding onto
// any device queue pair — the simulated NIC's or a live wire backend's.
func (d *DUT) buildPortOn(portID int, dev nic.Port) (*dpdk.Port, error) {
	o := d.Opts
	ringSize := dev.RXRingSize()

	switch o.Model {
	case click.XChange:
		descLayout := layout.XchgPacket()
		if o.MetaLayout != nil {
			descLayout = o.MetaLayout
		}
		var prof *layout.OrderProfile
		// Profiling of the X-Change descriptor is attached later by the
		// engine builder when requested; the pool starts unprofiled.
		dp, err := xchg.NewDescriptorPool(o.DescPool, descLayout, d.Static, prof)
		if err != nil {
			return nil, err
		}
		dp.SetFIFO(o.DescPoolFIFO)
		bind := xchg.NewCustomBinding("x-change", dp, !o.NoLTO)
		port := dpdk.NewPort(portID, dev, nil, bind, 32)
		if err := port.SetVectorized(o.VectorizedPMD); err != nil {
			return nil, err
		}
		bufs, err := dpdk.AllocRawBuffers(d.Huge, ringSize+o.DescPool,
			dpdk.DefaultHeadroom, dpdk.DefaultDataRoom)
		if err != nil {
			return nil, err
		}
		d.rawBufTotal += len(bufs)
		port.ProvideBuffers(bufs)
		if err := port.SetupRX(); err != nil {
			return nil, err
		}
		d.bindings[port] = bind
		return port, nil

	case click.Overlaying:
		spec := dpdk.DefaultBufSpec()
		spec.MetaLayout = layout.OverlayPacket()
		if o.MetaLayout != nil {
			spec.MetaLayout = o.MetaLayout
		}
		spec.SeparateMbuf = false
		pool, err := dpdk.NewMempool(fmt.Sprintf("ov%d-%d", portID, dev.QueueID()),
			ringSize+mempoolSlack, d.Huge, spec)
		if err != nil {
			return nil, err
		}
		bind := xchg.NewDefaultBinding(!o.NoLTO)
		port := dpdk.NewPort(portID, dev, pool, bind, 32)
		if err := port.SetVectorized(o.VectorizedPMD); err != nil {
			return nil, err
		}
		if err := port.SetupRX(); err != nil {
			return nil, err
		}
		d.mempools[port] = pool
		d.bindings[port] = bind
		return port, nil

	default: // Copying
		pool, err := dpdk.NewMempool(fmt.Sprintf("mb%d-%d", portID, dev.QueueID()),
			ringSize+mempoolSlack, d.Huge, dpdk.DefaultBufSpec())
		if err != nil {
			return nil, err
		}
		bind := xchg.NewDefaultBinding(!o.NoLTO)
		port := dpdk.NewPort(portID, dev, pool, bind, 32)
		if err := port.SetVectorized(o.VectorizedPMD); err != nil {
			return nil, err
		}
		if err := port.SetupRX(); err != nil {
			return nil, err
		}
		d.mempools[port] = pool
		d.bindings[port] = bind
		return port, nil
	}
}

// RecycleFor returns the buffer-recycling function for the ports of core
// c — what click.Router.Kill calls for dropped packets.
func (d *DUT) RecycleFor(c int) func(ec *click.ExecCtx, p *pktbuf.Packet) {
	ports := d.PortsFor[c]
	return func(ec *click.ExecCtx, p *pktbuf.Packet) {
		// Identify the origin port from the descriptor when possible.
		origin := 0
		if p.Meta != nil && p.Meta.L.Has(layout.FieldPort) {
			origin = int(p.Meta.Peek(layout.FieldPort))
		} else if p.Mbuf != nil {
			origin = int(p.Mbuf.Peek(layout.FieldPort))
		}
		port, ok := ports[origin]
		if !ok {
			port = ports[0]
		}
		switch d.Opts.Model {
		case click.XChange:
			if cb, ok := d.bindings[port].(*xchg.CustomBinding); ok {
				cb.Release(p)
			}
			port.ProvideBuffers([]*pktbuf.Packet{p})
		case click.Copying:
			if p.Meta != nil && ec.Rt.PacketPool != nil {
				ec.Rt.PacketPool.Put(ec.Core, p.Meta)
				p.Meta = nil
			}
			// A rejected put is a double free; the pool counted it and
			// kept its ledger intact, and the audit reports it.
			_ = d.mempools[port].Put(ec.Core, p)
		default:
			_ = d.mempools[port].Put(ec.Core, p)
		}
	}
}

// BuildRouters builds one router per core from a parsed graph
// (FastClick's thread model: each core runs the whole graph on its own
// queue).
func (d *DUT) BuildRouters(g *click.Graph) ([]*click.Router, error) {
	var routers []*click.Router
	for c := 0; c < d.Opts.Cores; c++ {
		env := click.BuildEnv{
			Opt:        d.Opts.Opt,
			Model:      d.Opts.Model,
			Heap:       d.Heap,
			Static:     d.Static,
			Huge:       d.Huge,
			Ports:      d.PortsFor[c],
			MetaLayout: d.Opts.MetaLayout,
			Profile:    d.Opts.Profile,
			Seed:       d.Opts.Seed + uint64(c),
			Prewarm:    d.machFor(c).Sys.Prewarm,
			Core:       c,
			Cores:      d.Opts.Cores,
		}
		rt, err := click.Build(g, env)
		if err != nil {
			return nil, err
		}
		rt.Recycle = d.RecycleFor(c)
		rt.Tel = d.Trackers[c]
		rt.Overload = d.Ctl(c)
		if d.Opts.FlowLog != nil {
			fc := d.Opts.FlowLog.Core(c)
			for _, inst := range rt.Instances {
				if h, ok := inst.El.(flowlog.Hookable); ok {
					h.BindFlowLog(fc)
				}
			}
		}
		if d.Opts.Model == click.XChange && rt.Prof != nil {
			// Attach the profile to every live X-Change descriptor pool
			// this core's ports use.
			for _, port := range d.PortsFor[c] {
				if cb, ok := d.bindings[port].(*xchg.CustomBinding); ok {
					cb.Pool.SetProfile(rt.Prof)
				}
			}
		}
		routers = append(routers, rt)
	}
	return routers, nil
}

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
	engines := make([]Engine, len(routers))
	for i, rt := range routers {
		engines[i] = &clickEngine{rt: rt, core: d.Cores[i]}
	}
	res, err := d.Drive(engines)
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

// clickEngine adapts a Router to the Engine interface.
type clickEngine struct {
	rt   *click.Router
	core *machine.Core
	ec   click.ExecCtx
}

func (e *clickEngine) Step(core *machine.Core, now float64) int {
	e.ec.Core = core
	e.ec.Now = now
	e.ec.Rt = e.rt
	return e.rt.Step(&e.ec)
}

// DropStats exposes the router's reason-coded drops to the harness.
func (e *clickEngine) DropStats() *stats.DropCounters { return &e.rt.DropStats }

// TxBacklog sums packets queued behind full TX rings across the router's
// output elements.
func (e *clickEngine) TxBacklog() int {
	total := 0
	for _, inst := range e.rt.Instances {
		if tb, ok := inst.El.(interface{ TxBacklog() int }); ok {
			total += tb.TxBacklog()
		}
	}
	return total
}

// Occupancy reports the worst fill fraction across the router's
// buffering elements — the engine-side component of the overload
// controller's occupancy signal.
func (e *clickEngine) Occupancy() float64 {
	worst := 0.0
	for _, inst := range e.rt.Instances {
		if oc, ok := inst.El.(interface{ OccupancyFrac() float64 }); ok {
			if f := oc.OccupancyFrac(); f > worst {
				worst = f
			}
		}
	}
	return worst
}

// DrainRestart flushes every buffering element in the router — the
// watchdog's self-healing escalation. Flushed packets are booked under
// DropOverloadRestart and held backpressure is released.
func (e *clickEngine) DrainRestart(core *machine.Core, now float64) int {
	e.ec.Core = core
	e.ec.Now = now
	e.ec.Rt = e.rt
	if e.ec.Tel == nil {
		e.ec.Tel = e.rt.Tel
	}
	n := 0
	for _, inst := range e.rt.Instances {
		if dre, ok := inst.El.(interface{ DrainRestart(*click.ExecCtx) int }); ok {
			n += dre.DrainRestart(&e.ec)
		}
	}
	return n
}

// dropStatser, txBacklogger, occupier, and drainRestarter are the
// optional engine interfaces the harness aggregates over.
type dropStatser interface{ DropStats() *stats.DropCounters }
type txBacklogger interface{ TxBacklog() int }
type occupier interface{ Occupancy() float64 }
type drainRestarter interface {
	DrainRestart(core *machine.Core, now float64) int
}

// StallError reports a run the watchdog killed: work was pending but
// nothing progressed for longer than the watchdog budget. Snapshot
// carries the datapath state for diagnosis.
type StallError struct {
	NowNS          float64
	LastProgressNS float64
	Snapshot       string
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("testbed: pipeline stalled: no progress since %.0f ns (now %.0f ns, budget exceeded)\n%s",
		e.LastProgressNS, e.NowNS, e.Snapshot)
}

// snapshot renders the datapath state for a StallError.
func (d *DUT) snapshot(engines []Engine) string {
	var b strings.Builder
	for _, n := range d.NICs {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for c := range d.PortsFor {
		for id := 0; id < d.Opts.NICs; id++ {
			port, ok := d.PortsFor[c][id]
			if !ok {
				continue
			}
			dev := port.Dev
			fmt.Fprintf(&b, "  core%d port%d: drops=[%s] spare=%d posted=%d pendingRx=%d inflightTx=%d refillShort=%d\n",
				c, id, port.Drops.String(), port.SpareCount(),
				dev.PostedCount(), dev.PendingCount(), dev.InflightCount(),
				port.Stats.RefillShort)
		}
	}
	for i, e := range engines {
		if tb, ok := e.(txBacklogger); ok {
			fmt.Fprintf(&b, "  engine%d: txBacklog=%d\n", i, tb.TxBacklog())
		}
	}
	return b.String()
}

// Audit reconciles every buffer ledger after a drained run; any
// discrepancy is a leak (or a detected double free) and returns an
// error naming it. The invariant: every buffer is either free in its
// pool or held by a NIC ring, and every X-Change descriptor is back in
// its pool.
func (d *DUT) Audit() error {
	// Ring holdings per queue (ports map 1:1 onto (nic, queue) pairs).
	held := 0
	for _, ports := range d.PortsFor {
		for _, port := range ports {
			held += port.Dev.HeldCount()
		}
	}
	if d.Opts.Model == click.XChange {
		spare := 0
		for _, ports := range d.PortsFor {
			for _, port := range ports {
				spare += port.SpareCount()
				if cb, ok := d.bindings[port].(*xchg.CustomBinding); ok {
					if n := cb.Pool.Outstanding(); n != 0 {
						return fmt.Errorf("testbed: port %d: %d X-Change descriptors leaked", port.ID, n)
					}
				}
			}
		}
		if spare+held != d.rawBufTotal {
			return fmt.Errorf("testbed: raw buffer leak: %d spare + %d in rings != %d allocated",
				spare, held, d.rawBufTotal)
		}
		return nil
	}
	outstanding, doubleFrees := 0, uint64(0)
	for _, pool := range d.mempools {
		outstanding += pool.Outstanding()
		doubleFrees += pool.DoubleFrees
	}
	if doubleFrees > 0 {
		return fmt.Errorf("testbed: %d double frees detected", doubleFrees)
	}
	if outstanding != held {
		return fmt.Errorf("testbed: mempool leak: %d outstanding != %d held by rings",
			outstanding, held)
	}
	return nil
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
	observers        []observer
	classLat         []*trace.Hist
	watchdogRestarts uint64
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

func (dr *driver) pendingRx() bool {
	for _, n := range dr.d.NICs {
		for q := 0; q < dr.o.Cores; q++ {
			if n.RX(q).PendingCount() > 0 {
				return true
			}
		}
	}
	return false
}

// txBacklog sums packets the engines still hold behind full TX rings.
func (dr *driver) txBacklog() int {
	total := 0
	for _, e := range dr.engines {
		if tb, ok := e.(txBacklogger); ok {
			total += tb.TxBacklog()
		}
	}
	return total
}

func (dr *driver) sample(now float64) {
	if !dr.o.Telemetry || now < dr.nextSampleNS {
		return
	}
	var pendRx, posted uint64
	for _, n := range dr.d.NICs {
		for q := 0; q < dr.o.Cores; q++ {
			pendRx += uint64(n.RX(q).PendingCount())
			posted += uint64(n.RX(q).PostedCount())
		}
	}
	iv := telemetry.Interval{
		TNS:       now,
		Offered:   dr.offered,
		TxWire:    dr.departed,
		PendingRx: pendRx,
		TxBacklog: uint64(dr.txBacklog()),
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

	// Watchdog: trip when work is pending but neither the generators,
	// the engines, nor the wire have progressed for watchdogNS of
	// simulated time — a livelocked or wedged pipeline.
	watchdogNS := o.WatchdogNS
	if watchdogNS == 0 {
		watchdogNS = 50e6 // 50 simulated ms
	}
	var lastProgressNS float64
	var lastOffered, lastDeparted uint64
	restarted := false // one drain-and-restart per stall window

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
			lastProgressNS = now
			lastOffered, lastDeparted = dr.offered, dr.departed
			restarted = false
		}
		if moved > 0 {
			idleStreak = 0
			continue
		}
		idleStreak++
		pending := !dr.sourcesDone() || dr.pendingRx() || dr.txBacklog() > 0
		if watchdogNS > 0 && pending && now-lastProgressNS > watchdogNS {
			// With the control plane armed, the first trip self-heals:
			// drain every buffering element (booked as overload-restart
			// drops), release stuck backpressure, and force the health
			// machines into Recovering. Only a second consecutive trip —
			// no progress since the restart — fails the run.
			if len(d.Ctls) > 0 && !restarted {
				restarted = true
				for i, e := range engines {
					if dre, ok := e.(drainRestarter); ok {
						dre.DrainRestart(d.Cores[i], d.Cores[i].NowNS())
					}
				}
				for c := 0; c < o.Cores; c++ {
					d.Ctl(c).ForceRecover(now)
					d.Ctl(c).ResetPressure(now)
				}
				dr.watchdogRestarts++
				lastProgressNS = now
				continue
			}
			snap := d.snapshot(engines)
			if path := d.dumpStallTrace(); path != "" {
				snap += fmt.Sprintf("  flight-recorder dump: %s\n", path)
			}
			return nil, &StallError{
				NowNS:          now,
				LastProgressNS: lastProgressNS,
				Snapshot:       snap,
			}
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
		for n := range d.NICs {
			if r := d.NICs[n].RX(ci).NextReadyNS(); r < next {
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
	res := d.ledger(engines, end, &dr.wireDrops, dr.startCounters)
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
		res.WatchdogRestarts = dr.watchdogRestarts
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

// dumpStallTrace writes the flight recorder's Chrome trace to
// Options.StallTracePath (when both are configured), making a watchdog
// kill post-mortem-debuggable. Returns the path written, or "".
func (d *DUT) dumpStallTrace() string {
	o := d.Opts
	if o.Trace == nil || o.StallTracePath == "" {
		return ""
	}
	if err := os.WriteFile(o.StallTracePath, o.Trace.ChromeJSON(), 0o644); err != nil {
		return ""
	}
	return o.StallTracePath
}
