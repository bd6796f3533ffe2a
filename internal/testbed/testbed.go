// Package testbed is the two-node experiment harness (the repository's
// NPF): a packet generator wired to a device under test. It assembles the
// DUT — machines, DPDK ports with the binding matching the chosen
// metadata model, and the engine under test — over either backend,
// offers load, and measures end-to-end latency and throughput the way the
// paper's generator server does.
//
// The files split at the driver seam. testbed.go holds the DUT both
// backends share: one assembly path, the PMD ports, the routers, the
// stall rule, and the buffer audit. sim.go is the simulated driver
// (seeded sources over simulated 100-GbE adapters, stepped on the
// simulated calendar); wire.go is the wire session (live internal/wire
// devices stepped on wall time); ledger.go is the one fold of the DUT's
// counters that every result and surface reads.
package testbed

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"

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

// mempoolSlack sizes each per-port DPDK mempool beyond its RX ring; no
// caller varies it.
const mempoolSlack = 2048

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
	// Counters is the perf delta over the measurement window (on the
	// wire, each core's first to last round that moved packets),
	// aggregated across cores (LLC counters are system-wide).
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
	// WatchdogRestarts counts drain-and-restart recoveries the stall
	// rule performed instead of failing the run (when Options.Overload).
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
	// Machs[c] is core c's machine. The simulated DUT steps every core
	// from one goroutine, so its cores share one machine (and one LLC);
	// wire cores run as concurrent goroutines and the simulated memory
	// hierarchy is a single-threaded model, so each has its own.
	Machs []*machine.Machine
	Cores []*machine.Core
	// NICs are the simulated adapters (none on the wire).
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
	// plane is off). The assembly attaches them to every PMD port and
	// BuildRouters installs them into the routers.
	Ctls []*overload.Controller
	// wireRes is the ledger of the last finished wire session
	// (WireResult).
	wireRes *Result
	// bells holds each core's doorbell, registered on that core's
	// devices; only a wire device ever rings it.
	bells []chan struct{}
	// stalls are the last session's stall rules: one per wire core, or
	// the simulator's one over every core.
	stalls []*stallRule
}

// Ctl returns core c's overload controller, or nil when the control
// plane is off — every consumer is nil-safe.
func (d *DUT) Ctl(c int) *overload.Controller {
	if c < len(d.Ctls) {
		return d.Ctls[c]
	}
	return nil
}

// NewDUT assembles the simulated DUT: one machine shared by every core,
// and o.NICs simulated adapters whose queue c becomes core c's device.
func NewDUT(o Options) (*DUT, error) {
	o = o.withDefaults()
	mach := machine.New(memConfig(o), machine.DefaultCostModel())
	machs := make([]*machine.Machine, o.Cores)
	for c := range machs {
		machs[c] = mach
	}
	return assemble(o, machs, func(d *DUT) [][]nic.Port {
		for n := 0; n < o.NICs; n++ {
			cfg := nic.DefaultConfig(fmt.Sprintf("nic%d", n))
			if o.NICConfig != nil {
				cfg = *o.NICConfig
				cfg.Name = fmt.Sprintf("nic%d", n)
			}
			cfg.NumQueues = o.Cores
			d.NICs = append(d.NICs, nic.New(cfg, mach.Sys, d.Huge))
		}
		// Queue c of NIC n appears as Click PORT n on core c.
		devs := make([][]nic.Port, o.Cores)
		for c := range devs {
			for _, n := range d.NICs {
				devs[c] = append(devs[c], n.Port(c))
			}
		}
		return devs
	})
}

// memConfig is the memory hierarchy every DUT machine models.
func memConfig(o Options) cache.SystemConfig {
	cfg := cache.DefaultSystemConfig()
	if o.DDIOWays > 0 {
		cfg.DDIOWays = o.DDIOWays
	}
	return cfg
}

// assemble is the one DUT assembly both backends share. machs[c] is core
// c's machine. devices runs once the arenas and cores exist and returns
// devs[c][i], core c's device for Click PORT i. Allocation order is
// fixed — cores, then whatever devices allocates, then the ports
// core-major — because the simulated cache model sees the addresses.
func assemble(o Options, machs []*machine.Machine, devices func(d *DUT) [][]nic.Port) (*DUT, error) {
	d := &DUT{
		Opts:     o,
		Machs:    machs,
		Huge:     memsim.NewArena("hugepages", memsim.HugeBase, 1<<30),
		Static:   memsim.NewArena("static", memsim.StaticBase, 512<<20),
		Heap:     memsim.NewHeap(),
		mempools: map[*dpdk.Port]*dpdk.Mempool{},
		bindings: map[*dpdk.Port]xchg.Binding{},
	}
	for _, mach := range machs {
		core := mach.AddCore(o.FreqGHz)
		d.Cores = append(d.Cores, core)
		d.PortsFor = append(d.PortsFor, map[int]*dpdk.Port{})
		d.bells = append(d.bells, make(chan struct{}, 1))
		// Tracing and the live exporter ride on the tracker's span seam,
		// so they need the trackers even when no report will be built.
		var tr *telemetry.Tracker
		if o.Telemetry || o.Trace != nil || o.Metrics != nil {
			tr = telemetry.NewTracker(core)
		}
		d.Trackers = append(d.Trackers, tr)
	}
	for c, devs := range devices(d) {
		for i, dev := range devs {
			// One bell per core, so a core with several ports wakes on
			// any of them.
			dev.SetDoorbell(d.bells[c])
			port, err := d.buildPortOn(i, dev)
			if err != nil {
				return nil, err
			}
			d.PortsFor[c][i] = port
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

// buildPortOn wires a PMD port with buffers and the model's binding onto
// any device queue pair — the simulated NIC's or a live wire backend's —
// and posts its RX ring.
func (d *DUT) buildPortOn(portID int, dev nic.Port) (*dpdk.Port, error) {
	o := d.Opts
	ringSize := dev.RXRingSize()
	var pool *dpdk.Mempool
	var bind xchg.Binding
	if o.Model == click.XChange {
		descLayout := layout.XchgPacket()
		if o.MetaLayout != nil {
			descLayout = o.MetaLayout
		}
		// Profiling of the X-Change descriptor is attached later by the
		// engine builder when requested; the pool starts unprofiled.
		dp, err := xchg.NewDescriptorPool(o.DescPool, descLayout, d.Static, nil)
		if err != nil {
			return nil, err
		}
		dp.SetFIFO(o.DescPoolFIFO)
		bind = xchg.NewCustomBinding("x-change", dp, !o.NoLTO)
	} else {
		// Copying and Overlaying differ only in the buffer layout.
		spec, prefix := dpdk.DefaultBufSpec(), "mb"
		if o.Model == click.Overlaying {
			spec.MetaLayout = layout.OverlayPacket()
			if o.MetaLayout != nil {
				spec.MetaLayout = o.MetaLayout
			}
			spec.SeparateMbuf = false
			prefix = "ov"
		}
		var err error
		pool, err = dpdk.NewMempool(fmt.Sprintf("%s%d-%d", prefix, portID, dev.QueueID()),
			ringSize+mempoolSlack, d.Huge, spec)
		if err != nil {
			return nil, err
		}
		bind = xchg.NewDefaultBinding(!o.NoLTO)
	}
	port := dpdk.NewPort(portID, dev, pool, bind, 32)
	if err := port.SetVectorized(o.VectorizedPMD); err != nil {
		return nil, err
	}
	if pool != nil {
		d.mempools[port] = pool
	} else {
		// X-Change posts raw buffers the application owns.
		bufs, err := dpdk.AllocRawBuffers(d.Huge, ringSize+o.DescPool,
			dpdk.DefaultHeadroom, dpdk.DefaultDataRoom)
		if err != nil {
			return nil, err
		}
		d.rawBufTotal += len(bufs)
		port.ProvideBuffers(bufs)
	}
	if err := port.SetupRX(); err != nil {
		return nil, err
	}
	d.bindings[port] = bind
	return port, nil
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
			Prewarm:    d.Machs[c].Sys.Prewarm,
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

// clickEngines adapts one router per core to the Engine interface.
func clickEngines(routers []*click.Router) []Engine {
	engines := make([]Engine, len(routers))
	for i, rt := range routers {
		engines[i] = &clickEngine{rt: rt}
	}
	return engines
}

// clickEngine adapts a Router to the Engine interface.
type clickEngine struct {
	rt *click.Router
	ec click.ExecCtx
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

// dropStatser and occupier are optional engine interfaces the harness
// aggregates over.
type dropStatser interface{ DropStats() *stats.DropCounters }
type occupier interface{ Occupancy() float64 }

// txBacklog sums the packets the engines hold behind full TX rings (an
// engine that keeps no backlog holds none).
func txBacklog(engines ...Engine) int {
	total := 0
	for _, e := range engines {
		if tb, ok := e.(interface{ TxBacklog() int }); ok {
			total += tb.TxBacklog()
		}
	}
	return total
}

// busy reports work core c's next round must serve: frames pending on
// its ports or a TX backlog in its engine. TX frames in flight do not
// count: a core reaps them only on its next burst, whenever that comes.
func (d *DUT) busy(c int, eng Engine) bool {
	for id, ports := 0, d.PortsFor[c]; id < len(ports); id++ {
		if ports[id].Dev.PendingCount() > 0 {
			return true
		}
	}
	return txBacklog(eng) > 0
}

// StallError reports a run the stall rule ended: work was pending but
// nothing progressed for longer than the bound. Core is the stalled
// core (-1: the simulated driver's rule watches every core); Snapshot
// carries the datapath state for diagnosis.
type StallError struct {
	Core                  int
	NowNS, LastProgressNS float64
	Snapshot              string
}

// Error implements error.
func (e *StallError) Error() string {
	who := "pipeline"
	if e.Core >= 0 {
		who = fmt.Sprintf("core %d", e.Core)
	}
	return fmt.Sprintf("testbed: %s stalled: no progress since %.0f ns (now %.0f ns, budget exceeded)\n%s",
		who, e.LastProgressNS, e.NowNS, e.Snapshot)
}

// verdict is the stall rule's judgment of a round that moved nothing.
type verdict int

const (
	working verdict = iota // within the bound, or nothing pending
	restart                // first trip with the control plane armed
	stalled                // wedged: the run fails
)

// stallRule is the one watchdog both drivers run, each on its own clock
// (simulated or wall ns). A stall window opens at the latest progress,
// round that found nothing pending, or restart; work pending for bound
// past it is a stall. With the control plane armed (heal), a window's
// first trip asks for a drain-and-restart and only the second fails.
// restarts and last (the float64 bits of the latest progress) are
// atomic: wire core 0 reads the other cores'.
type stallRule struct {
	bound, clear    float64
	heal, restarted bool
	restarts, last  atomic.Uint64
}

func (r *stallRule) progress(now float64) {
	r.last.Store(math.Float64bits(now))
	r.restarted = false
}

func (r *stallRule) lastNS() float64 { return math.Float64frombits(r.last.Load()) }

func (r *stallRule) judge(now float64, pending bool) verdict {
	if !pending {
		r.clear, r.restarted = now, false
	}
	if !pending || now-max(r.lastNS(), r.clear) <= r.bound {
		return working
	}
	if r.heal && !r.restarted {
		r.clear, r.restarted = now, true
		r.restarts.Add(1)
		return restart
	}
	return stalled
}

// drainRestart carries out a restart on core c: its engine drains its
// buffering elements at engNS, its controller recovers at now.
func (d *DUT) drainRestart(c int, eng Engine, engNS, now float64) {
	if dre, ok := eng.(interface {
		DrainRestart(*machine.Core, float64) int
	}); ok {
		dre.DrainRestart(d.Cores[c], engNS)
	}
	d.Ctl(c).ForceRecover(now)
	d.Ctl(c).ResetPressure(now)
}

// snapshot renders the datapath state for a StallError, and writes the
// flight recorder dump to Options.StallTracePath (when armed).
func (d *DUT) snapshot(engines []Engine) string {
	var b strings.Builder
	for _, n := range d.NICs {
		fmt.Fprintf(&b, "  %s\n", n)
	}
	for c, ports := range d.PortsFor {
		for id := 0; id < len(ports); id++ {
			port := ports[id]
			dev := port.Dev
			fmt.Fprintf(&b, "  core%d port%d: drops=[%s] spare=%d posted=%d pendingRx=%d inflightTx=%d refillShort=%d\n",
				c, id, port.Drops.String(), port.SpareCount(),
				dev.PostedCount(), dev.PendingCount(), dev.InflightCount(),
				port.Stats.RefillShort)
		}
	}
	for i, e := range engines {
		fmt.Fprintf(&b, "  engine%d: txBacklog=%d\n", i, txBacklog(e))
	}
	if o := d.Opts; o.Trace != nil && o.StallTracePath != "" &&
		os.WriteFile(o.StallTracePath, o.Trace.ChromeJSON(), 0o644) == nil {
		fmt.Fprintf(&b, "  flight-recorder dump: %s\n", o.StallTracePath)
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
