// Wire serving: driving an engine against live internal/wire ports
// instead of the simulated two-node harness. The same DUT assembly —
// mempools, bindings, routers, telemetry — runs here; what changes is
// the clock (wall time, since real sockets do not advance a simulated
// calendar) and the exit conditions (idle timeout, packet budget, or a
// core's stall rule instead of a drained traffic source).
//
// Multicore serving is the paper's run-to-completion model made literal:
// core c owns its queue pairs, its pktbuf pools, its span tracker, its
// overload controller, its Click graph replica, and its own simulated
// machine — zero shared mutable state on the hot path. The cores meet
// only at a stop channel, padded per-core progress slots core 0 reads,
// and (when a metrics exporter is attached) a publish gate that briefly
// quiesces the cores for a snapshot.
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

	"packetmill/internal/click"
	"packetmill/internal/machine"
	"packetmill/internal/nic"
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
// run-to-completion pipeline shares nothing anyway.
func NewWireDUTPerCore(o Options, devsPerCore [][]nic.Port) (*DUT, error) {
	if len(devsPerCore) == 0 || len(devsPerCore[0]) == 0 {
		return nil, fmt.Errorf("testbed: wire DUT needs at least one core with at least one device")
	}
	o.Cores = len(devsPerCore)
	o.NICs = len(devsPerCore[0])
	o = o.withDefaults()
	machs := make([]*machine.Machine, o.Cores)
	for c, devs := range devsPerCore {
		if len(devs) != o.NICs {
			return nil, fmt.Errorf("testbed: core %d has %d devices, core 0 has %d", c, len(devs), o.NICs)
		}
		machs[c] = machine.New(memConfig(o), machine.DefaultCostModel())
	}
	return assemble(o, machs, func(*DUT) [][]nic.Port { return devsPerCore })
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
// the datapath has been idle for idleExit (0 = no idle exit), or a core
// stalls. On every exit it drains in-flight transmissions so a post-run
// Audit balances.
//
// Every core runs the same run-to-completion loop, stepping only its
// own engine, ports, tracker, and overload controller against its own
// machine. The caller's goroutine runs core 0 and also watches the exit
// conditions; cores 1..N-1 run one goroutine each. A core that keeps
// finding nothing to do parks on its doorbell (coreLoop.serve), at most
// parkBound at a time, so core 0 still checks the exits that often.
// The session never ends as idle while a core found work pending on its
// last idle round; a stalled core ends it with a *StallError.
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
	loops := make([]*coreLoop, len(engines))
	d.stalls = d.stalls[:0]
	for i := range loops {
		timer := time.NewTimer(parkBound)
		timer.Stop()
		loops[i] = &coreLoop{d: d, ci: i, eng: engines[i], obs: d.newObserver(i), start: start,
			bell: d.bells[i], timer: timer, first: -1,
			stall: stallRule{bound: float64(wireStallBound), heal: len(d.Ctls) > 0}}
		if publish && i > 0 {
			loops[i].gate = &gate
		}
		d.stalls = append(d.stalls, &loops[i].stall)
	}
	var tripped atomic.Pointer[StallError] // the first stall a core met
	var wg sync.WaitGroup
	for _, cl := range loops[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e := cl.serve(stop, nil); e != nil {
				tripped.CompareAndSwap(nil, e)
			}
		}()
	}

	// Core 0 also watches the exits. Its own progress is exact on every
	// round; the other cores' are read every othersEvery, so core 0 does
	// not pull their cache lines on each round.
	var lastPublish, nextSum time.Duration
	othersPkts, othersWork, othersBusy, cl := uint64(0), 0.0, false, loops[0]
	exit := func(now time.Duration) bool {
		if now >= nextSum {
			nextSum = now + othersEvery
			othersPkts, othersWork, othersBusy = 0, 0, false
			for _, o := range loops[1:] {
				othersPkts += o.packets.Load()
				othersWork = max(othersWork, o.stall.lastNS())
				othersBusy = othersBusy || o.busy.Load()
			}
		}
		if tripped.Load() != nil || maxPackets > 0 && cl.packets.Load()+othersPkts >= maxPackets {
			return true
		}
		if idleExit > 0 && !othersBusy && !cl.busy.Load() &&
			float64(now)-max(cl.stall.lastNS(), othersWork) > float64(idleExit) {
			return true
		}
		if publish && now-lastPublish >= metricsInterval {
			lastPublish = now
			gate.Lock()
			d.publishMetrics(engines, d.wireResult(engines, loops, now), now)
			gate.Unlock()
		}
		return false
	}
	if e := cl.serve(ctx.Done(), exit); e != nil {
		tripped.CompareAndSwap(nil, e)
	}
	err := ctx.Err()
	close(stop)
	wg.Wait()
	// Cores are joined: the stall snapshot, the drain, the session's
	// final ledger, and the last metrics snapshot run single-threaded
	// over quiescent state. The metrics snapshot renders that same
	// ledger, so a scrape after the session sees what WireResult
	// returns, not a half-second-old view.
	if e := tripped.Load(); e != nil {
		e.Snapshot, err = d.snapshot(engines)+e.Snapshot, e
	}
	d.drainWire(engines, start)
	now := time.Since(start)
	d.wireRes = d.wireResult(engines, loops, now)
	d.publishMetrics(engines, d.wireRes, now)
	var st WireServeStats
	for _, cl := range loops {
		st.Steps += cl.steps.Load()
		st.Packets += cl.packets.Load()
	}
	return st, err
}

// wireStallBound is a wire core's stall bound. It must exceed
// internal/wire's txWriteBound (100 ms): a TX write may wait that long,
// and a core behind a full TX ring moves only as those writes end.
const wireStallBound = 500 * time.Millisecond

// othersEvery is how often core 0 reads the other cores' progress.
const othersEvery = time.Millisecond

// idleSpins is how many consecutive empty rounds a core yields the P
// before it parks: enough to ride out the gap between frames of a burst
// without a sleep, short enough that an idle core soon stops running.
const idleSpins = 32

// parkBound caps one park. The doorbell carries the wake-up latency;
// the bound only paces core 0's exit checks (budget, idle exit, metrics
// publish). A variable so a test can raise it.
var parkBound = time.Millisecond

// coreLoop is one core's serving state, stepped on wall time since
// start: engine, observer, idle state (doorbell, park timer, run of
// empty rounds), the progress core 0 reads, and the measurement window.
type coreLoop struct {
	d     *DUT
	ci    int
	eng   Engine
	obs   observer
	gate  *sync.RWMutex // read side held by cores 1..N-1 with an exporter
	start time.Time
	bell  chan struct{}
	timer *time.Timer
	empty int
	// Read by core 0; the stall rule stamps the end of each moving round.
	steps, packets atomic.Uint64
	busy           atomic.Bool // the last idle round found work pending
	stall          stallRule
	// The window: first (-1 before it) starts the first moving round,
	// base the counters before it, end the counters after the latest.
	first     time.Duration
	base, end machine.Counters
	_         [64]byte // off the next core's cache lines
}

// serve runs the core's rounds until done closes, watch (core 0's exit
// checks) asks to stop, or the core stalls. After a round that moved
// nothing it yields the P; after idleSpins such rounds a core with
// nothing pending parks until the doorbell rings, parkBound passes, or
// done closes. The stall rule then judges the round; a stall returns
// with every goroutine's stack, taken at once.
func (cl *coreLoop) serve(done <-chan struct{}, watch func(time.Duration) bool) *StallError {
	for {
		select {
		case <-done:
			return nil
		default:
		}
		now := time.Since(cl.start)
		moved := cl.step(now)
		if watch != nil && watch(now) {
			return nil
		}
		if moved > 0 {
			continue
		}
		if cl.empty++; cl.empty < idleSpins {
			runtime.Gosched()
			continue
		}
		busy := cl.d.busy(cl.ci, cl.eng)
		cl.busy.Store(busy)
		if !busy {
			cl.timer.Reset(parkBound)
			select {
			case <-cl.bell:
			case <-cl.timer.C:
			case <-done:
			}
			cl.timer.Stop()
			now = time.Since(cl.start) // idle until now: an arrival rings the bell
		}
		switch cl.stall.judge(float64(now), busy) {
		case restart:
			if cl.gate != nil {
				cl.gate.RLock()
			}
			cl.d.drainRestart(cl.ci, cl.eng, float64(now), float64(now))
			if cl.gate != nil {
				cl.gate.RUnlock()
			}
		case stalled:
			buf := make([]byte, 1<<20) // a longer dump is cut short
			return &StallError{Core: cl.ci, NowNS: float64(now), LastProgressNS: cl.stall.lastNS(),
				Snapshot: "  goroutines at the trip:\n" + string(buf[:runtime.Stack(buf, true)])}
		}
		if busy {
			runtime.Gosched()
		}
	}
}

// step runs one scheduling round of the core at wall offset now. A
// round that moves packets stamps the core's progress and extends its
// measurement window.
func (cl *coreLoop) step(now time.Duration) int {
	if cl.gate != nil {
		cl.gate.RLock()
		defer cl.gate.RUnlock()
	}
	core := cl.d.Cores[cl.ci]
	if cl.first < 0 {
		cl.base = core.Snapshot()
	}
	cl.obs.step(cl.d, cl.eng, cl.ci, float64(now))
	moved := cl.eng.Step(core, float64(now))
	cl.steps.Add(1)
	if moved > 0 {
		cl.packets.Add(uint64(moved))
		cl.empty = 0
		if cl.first < 0 {
			cl.first = now
		}
		cl.end = core.Snapshot()
		cl.stall.progress(float64(time.Since(cl.start)))
	}
	return moved
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

// NewWireGraphPerCore assembles the N-core wire DUT and one replica of
// g's router per core (devsPerCore[c][i] is core c's Click PORT i),
// ready for ServeWire. The DUT's RX rings are posted on return, so a
// caller can start its traffic first and then serve.
func NewWireGraphPerCore(g *click.Graph, o Options, devsPerCore [][]nic.Port) (*DUT, []Engine, error) {
	d, err := NewWireDUTPerCore(o, devsPerCore)
	if err != nil {
		return nil, nil, err
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		return nil, nil, err
	}
	return d, clickEngines(routers), nil
}
