// Wire serving: driving an engine against live internal/wire ports
// instead of the simulated two-node harness. The same DUT assembly —
// mempools, bindings, routers, telemetry — runs here; what changes is
// the clock (wall time, since real sockets do not advance a simulated
// calendar) and the exit condition (idle timeout or packet budget
// instead of a drained traffic source).
//
// Multicore serving is the paper's run-to-completion model made literal:
// core c owns its queue pairs, its pktbuf pools, its span tracker, its
// overload controller, its Click graph replica, and its own simulated
// machine — zero shared mutable state on the hot path. The cores meet
// only at a stop channel, padded per-core progress counters core 0
// sums, and (when a metrics exporter is attached) a publish gate that
// briefly quiesces the cores for a snapshot.
//
// An idle core does not spin: after idleSpins empty rounds it parks on
// its doorbell, which its ports ring when an RX ring goes from empty to
// non-empty — the sleep-until-arrival Metronome puts in place of DPDK's
// busy poll, reduced to one fixed bound.
package testbed

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packetmill/internal/cache"
	"packetmill/internal/click"
	"packetmill/internal/dpdk"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/nic"
	"packetmill/internal/telemetry"
	"packetmill/internal/xchg"
)

// NewWireDUT assembles a single-core DUT whose PMD ports sit on the
// given live devices (internal/wire ports) instead of simulated
// adapters. Device i appears as Click PORT i.
func NewWireDUT(o Options, devs []nic.Port) (*DUT, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("testbed: wire DUT needs at least one device")
	}
	return NewWireDUTPerCore(o, [][]nic.Port{devs})
}

// NewWireDUTPerCore assembles an N-core wire DUT: devsPerCore[c][i] is
// core c's own queue pair appearing as Click PORT i — typically queue c
// of a wire.Fanout, or a dedicated socketpair per core. Every core gets
// a private machine: the cores run as concurrent goroutines and the
// simulated memory hierarchy is a single-threaded model, and a
// run-to-completion pipeline shares nothing anyway. Every core also
// gets one doorbell, registered on each of its devices, so a core with
// several ports wakes on any of them.
func NewWireDUTPerCore(o Options, devsPerCore [][]nic.Port) (*DUT, error) {
	if len(devsPerCore) == 0 || len(devsPerCore[0]) == 0 {
		return nil, fmt.Errorf("testbed: wire DUT needs at least one core with at least one device")
	}
	o.Cores = len(devsPerCore)
	o.NICs = len(devsPerCore[0])
	o = o.withDefaults()
	memCfg := cache.DefaultSystemConfig()
	if o.DDIOWays > 0 {
		memCfg.DDIOWays = o.DDIOWays
	}
	d := &DUT{
		Opts:     o,
		Huge:     memsim.NewArena("hugepages", memsim.HugeBase, 1<<30),
		Static:   memsim.NewArena("static", memsim.StaticBase, 512<<20),
		Heap:     memsim.NewHeap(),
		mempools: map[*dpdk.Port]*dpdk.Mempool{},
		bindings: map[*dpdk.Port]xchg.Binding{},
	}
	for c, devs := range devsPerCore {
		if len(devs) != o.NICs {
			return nil, fmt.Errorf("testbed: core %d has %d devices, core 0 has %d", c, len(devs), o.NICs)
		}
		mach := machine.New(memCfg, machine.DefaultCostModel())
		d.Machs = append(d.Machs, mach)
		core := mach.AddCore(o.FreqGHz)
		d.Cores = append(d.Cores, core)
		d.PortsFor = append(d.PortsFor, map[int]*dpdk.Port{})
		bell := make(chan struct{}, 1)
		d.bells = append(d.bells, bell)
		// Tracing and the live exporter both need the span trackers; the
		// report itself still requires Telemetry.
		if o.Telemetry || o.Trace != nil || o.Metrics != nil {
			d.Trackers = append(d.Trackers, telemetry.NewTracker(core))
		} else {
			d.Trackers = append(d.Trackers, nil)
		}
		for i, dev := range devs {
			dev.SetDoorbell(bell)
			port, err := d.buildPortOn(i, dev)
			if err != nil {
				return nil, err
			}
			d.PortsFor[c][i] = port
		}
	}
	d.Mach = d.Machs[0]
	d.buildControllers()
	d.attachTrace()
	return d, nil
}

// WireServeStats summarizes a wire-serving session.
type WireServeStats struct {
	// Steps is the number of scheduling rounds executed (summed across
	// cores on a multicore session).
	Steps uint64
	// Packets sums the engines' Step results: packets moved, as each
	// engine counts them. The Click engine counts a frame once when it
	// is received and again only if a TX backlog retries it, so this is
	// not a frame count; the ledger (WireResult) holds those.
	Packets uint64
}

// ServeWire drives the engines against wall-clock time until ctx is
// canceled, the engines have moved maxPackets packets (0 = no budget),
// or the datapath has been idle for idleExit (0 = no idle exit). On a
// normal exit it drains in-flight transmissions so a post-run Audit
// balances.
//
// Every core runs the same run-to-completion loop, stepping only its
// own engine, ports, tracker, and overload controller against its own
// machine. The caller's goroutine runs core 0 and also watches the exit
// conditions; cores 1..N-1 run one goroutine each. A core that keeps
// finding nothing to do parks on its doorbell (coreLoop.idle), at most
// parkBound at a time, so core 0 still checks the exits that often.
func (d *DUT) ServeWire(ctx context.Context, engines []Engine,
	idleExit time.Duration, maxPackets uint64) (WireServeStats, error) {
	if len(engines) != len(d.Cores) {
		return WireServeStats{}, fmt.Errorf("testbed: %d engines for %d cores", len(engines), len(d.Cores))
	}
	start := time.Now()
	// On the wire the flight recorder timestamps events with wall time
	// (the simulated calendar does not advance against real sockets).
	if d.Opts.Trace != nil {
		for _, ct := range d.Opts.Trace.Cores() {
			ct.SetClock(func() float64 { return float64(time.Since(start)) })
		}
	}
	// The gate exists only for the exporter: every per-core counter,
	// histogram, and tracker is single-writer state owned by its core's
	// goroutine, so a mid-session snapshot must quiesce cores 1..N-1
	// (writer side) while they step under the read side. Core 0 publishes
	// between its own steps and so never needs the read side. Without an
	// exporter no core touches the gate.
	var gate sync.RWMutex
	publish := d.Opts.Metrics != nil
	stop := make(chan struct{})
	prog := make([]coreProgress, len(engines))
	var wg sync.WaitGroup
	for i := 1; i < len(engines); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := d.newCoreLoop(engines, i)
			p := &prog[i]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if publish {
					gate.RLock()
				}
				now := time.Since(start)
				moved := cl.step(now)
				if publish {
					gate.RUnlock()
				}
				p.steps.Add(1)
				if moved > 0 {
					p.packets.Add(uint64(moved))
					p.lastWork.Store(int64(now))
				} else {
					cl.idle(stop)
				}
			}
		}()
	}

	// Core 0's loop. Its own progress is exact on every step; the other
	// cores' counters are summed every othersEvery, so core 0 does not
	// pull their cache lines on each round.
	cl := d.newCoreLoop(engines, 0)
	var st WireServeStats
	var err error
	var lastWork, lastPublish, nextSum, othersWork time.Duration
	var othersPkts uint64
serve:
	for {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break serve
		default:
		}
		now := time.Since(start)
		moved := cl.step(now)
		st.Steps++
		if moved > 0 {
			st.Packets += uint64(moved)
			lastWork = now
		}
		if now >= nextSum {
			nextSum = now + othersEvery
			othersPkts, othersWork = 0, 0
			for i := 1; i < len(prog); i++ {
				othersPkts += prog[i].packets.Load()
				othersWork = max(othersWork, time.Duration(prog[i].lastWork.Load()))
			}
		}
		if maxPackets > 0 && st.Packets+othersPkts >= maxPackets {
			break
		}
		if idleExit > 0 && now-max(lastWork, othersWork) > idleExit {
			break
		}
		if publish && now-lastPublish >= metricsInterval {
			lastPublish = now
			gate.Lock()
			d.publishMetrics(engines, d.wireResult(engines, now))
			gate.Unlock()
		}
		if moved == 0 {
			cl.idle(ctx.Done())
		}
	}
	close(stop)
	wg.Wait()
	// Cores are joined: the drain, the session's final ledger, and the
	// last snapshot run single-threaded over quiescent state. The
	// snapshot renders that same ledger, so a scrape after the session
	// sees what WireResult returns, not a half-second-old view.
	d.drainWire(engines, start)
	d.wireRes = d.wireResult(engines, time.Since(start))
	d.publishMetrics(engines, d.wireRes)
	for i := 1; i < len(prog); i++ {
		st.Steps += prog[i].steps.Load()
		st.Packets += prog[i].packets.Load()
	}
	return st, err
}

// othersEvery is how often core 0 sums the other cores' progress
// counters to check the packet budget and the idle exit.
const othersEvery = time.Millisecond

// coreProgress is the slice of serving state core c > 0 shares with
// core 0, padded past a cache line so neighboring cores' counters never
// false-share.
type coreProgress struct {
	steps   atomic.Uint64
	packets atomic.Uint64
	// lastWork is the wall offset (ns since serve start) of the last
	// round that moved packets.
	lastWork atomic.Int64
	_        [104]byte
}

// idleSpins is how many consecutive empty rounds a core yields the P
// before it parks: enough to ride out the gap between frames of a burst
// without a sleep, short enough that an idle core soon stops running.
const idleSpins = 32

// parkBound caps one park. The doorbell carries the wake-up latency;
// the bound only paces core 0's exit checks (budget, idle exit, metrics
// publish). A variable so a test can raise it.
var parkBound = time.Millisecond

// coreLoop is one core's serving state: its engine, its overload
// observer, stepped on the wall clock, and its idle state — the
// doorbell its ports ring, a park timer reused across parks, and the
// run of empty rounds so far.
type coreLoop struct {
	d     *DUT
	ci    int
	eng   Engine
	obs   observer
	bell  chan struct{}
	timer *time.Timer
	empty int
}

func (d *DUT) newCoreLoop(engines []Engine, ci int) *coreLoop {
	timer := time.NewTimer(parkBound)
	timer.Stop()
	return &coreLoop{d: d, ci: ci, eng: engines[ci], obs: d.newObserver(ci),
		bell: d.bells[ci], timer: timer}
}

// step runs one scheduling round of the core at wall offset now.
func (cl *coreLoop) step(now time.Duration) int {
	cl.obs.step(cl.d, cl.eng, cl.ci, float64(now))
	moved := cl.eng.Step(cl.d.Cores[cl.ci], float64(now))
	if moved > 0 {
		cl.empty = 0
	}
	return moved
}

// idle follows a round that moved nothing. For the first idleSpins such
// rounds in a row it only yields the P; after that it parks the core
// until the doorbell rings, parkBound passes, or stop closes. It never
// parks while a port holds received frames or the engine holds a TX
// backlog: the next round has work. TX frames still in flight do not
// count — the PMD reaps them on its next burst, whenever that comes.
func (cl *coreLoop) idle(stop <-chan struct{}) {
	if cl.empty++; cl.empty < idleSpins || cl.busy() {
		runtime.Gosched()
		return
	}
	cl.timer.Reset(parkBound)
	select {
	case <-cl.bell:
	case <-cl.timer.C:
	case <-stop:
	}
	cl.timer.Stop()
}

// busy reports work the next round must serve: frames pending on one of
// the core's ports or packets behind a full TX ring.
func (cl *coreLoop) busy() bool {
	for _, port := range cl.d.PortsFor[cl.ci] {
		if port.Dev.PendingCount() > 0 {
			return true
		}
	}
	tb, ok := cl.eng.(txBacklogger)
	return ok && tb.TxBacklog() > 0
}

// drainWire steps the engines and reaps TX rings until nothing moves and
// nothing is in flight (bounded by a wall-clock deadline), so buffers
// make it back to their pools before an Audit.
func (d *DUT) drainWire(engines []Engine, start time.Time) {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		now := float64(time.Since(start))
		moved := 0
		for i, e := range engines {
			moved += e.Step(d.Cores[i], now)
		}
		inflight := 0
		for c, ports := range d.PortsFor {
			for _, port := range ports {
				// An empty TxBurst still reaps departed frames.
				port.TxBurst(d.Cores[c], now, nil)
				inflight += port.Dev.InflightCount()
			}
		}
		if moved == 0 && inflight == 0 {
			return
		}
		runtime.Gosched()
	}
}

// ServeWireGraph builds routers for g on a single-core wire DUT and
// serves: the one-call path cmd/packetmill's -io wire mode uses. The DUT
// is returned so callers can audit buffers and read telemetry after the
// session.
func ServeWireGraph(ctx context.Context, g *click.Graph, o Options,
	devs []nic.Port, idleExit time.Duration, maxPackets uint64) (*DUT, WireServeStats, error) {
	if len(devs) == 0 {
		return nil, WireServeStats{}, fmt.Errorf("testbed: wire DUT needs at least one device")
	}
	return ServeWireGraphPerCore(ctx, g, o, [][]nic.Port{devs}, idleExit, maxPackets)
}

// ServeWireGraphPerCore is ServeWireGraph for N run-to-completion cores:
// one router replica per core, each driving that core's own devices
// (devsPerCore[c][i] is core c's Click PORT i).
func ServeWireGraphPerCore(ctx context.Context, g *click.Graph, o Options,
	devsPerCore [][]nic.Port, idleExit time.Duration, maxPackets uint64) (*DUT, WireServeStats, error) {
	d, engines, err := NewWireGraphPerCore(g, o, devsPerCore)
	if err != nil {
		return nil, WireServeStats{}, err
	}
	st, err := d.ServeWire(ctx, engines, idleExit, maxPackets)
	return d, st, err
}

// NewWireGraphPerCore assembles what ServeWireGraphPerCore serves — the
// N-core wire DUT and one router engine per core — without serving, for
// a caller that must start its traffic only once the DUT's rings are
// posted and then call ServeWire itself.
func NewWireGraphPerCore(g *click.Graph, o Options, devsPerCore [][]nic.Port) (*DUT, []Engine, error) {
	d, err := NewWireDUTPerCore(o, devsPerCore)
	if err != nil {
		return nil, nil, err
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		return nil, nil, err
	}
	engines := make([]Engine, len(routers))
	for i, rt := range routers {
		engines[i] = &clickEngine{rt: rt, core: d.Cores[i]}
	}
	return d, engines, nil
}
