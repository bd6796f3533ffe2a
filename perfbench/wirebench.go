package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"packetmill/internal/click"
	"packetmill/internal/core"
	"packetmill/internal/dpdk"
	"packetmill/internal/netpkt"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/testbed"
	"packetmill/internal/trafficgen"
	"packetmill/internal/wire"
)

// wire-mirror: nf.Mirror(0,32) on one wire DUT core over AF_UNIX
// socketpairs. The generator and the sink own the raw far ends of the
// two socketpairs — no wire.Port sits on their side, so the DUT's
// Enqueue (which writes under its port lock) always faces a reader that
// takes no lock, and no lock cycle can form between the two ends.
const (
	wireFlows     = 64
	wireFrameSize = 64
	wireRing      = 256
	// wireWindow caps frames in flight in the windowed phase; below
	// the RX ring so the ring cannot overflow.
	wireWindow = 128
	// Fixed open-loop rates, frames per second.
	wireLowPPS  = 2000
	wireHighPPS = 5000
	// Payload layout after the 42-byte Ethernet/IPv4/UDP header:
	// sequence (8), scheduled send offset in ns (8), check word (4).
	offSeq   = netpkt.EtherHdrLen + netpkt.IPv4HdrLen + netpkt.UDPHdrLen
	offTS    = offSeq + 8
	offCheck = offTS + 8
)

var (
	// drainGrace bounds the wait, after the generator stops, for frames
	// still in flight to reach the sink; it also bounds a stalled window.
	drainGrace = 2 * time.Second
	// stopGrace bounds ServeWire's return after its context is canceled
	// (its own drain is bounded at 2 s).
	stopGrace = 4 * time.Second
	// writeSlack bounds how far past the phase's end the generator may
	// still be sending.
	writeSlack = time.Second
	// rateSlice is the slice length of the windowed phase's rate samples.
	rateSlice = 100 * time.Millisecond
)

// mix64 is the splitmix64 finalizer: a seeded, stateless hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// wireFrames builds the flow templates and derives, from the seed, which
// flow carries each sequence number and the check word of each frame.
type wireFrames struct {
	seed  uint64
	flows [wireFlows][]byte
}

func newWireFrames(seed uint64) *wireFrames {
	w := &wireFrames{seed: seed}
	for i := range w.flows {
		w.flows[i] = netpkt.BuildUDP(make([]byte, wireFrameSize), netpkt.UDPPacketSpec{
			SrcMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 1},
			DstMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 2},
			SrcIP:   netpkt.IPv4{10, 0, 0, 1},
			DstIP:   netpkt.IPv4{10, 0, 0, 2},
			SrcPort: uint16(1000 + i),
			DstPort: 9,
		})
	}
	return w
}

func (w *wireFrames) flowOf(seq uint64) int { return int(mix64(w.seed^seq) % wireFlows) }

func (w *wireFrames) check(seq uint64, ts int64) uint32 {
	return uint32(mix64(w.seed ^ mix64(seq^uint64(ts))))
}

// fill writes frame seq, scheduled ts ns after the phase start, into buf.
func (w *wireFrames) fill(buf []byte, seq uint64, ts int64) {
	copy(buf, w.flows[w.flowOf(seq)])
	binary.BigEndian.PutUint64(buf[offSeq:], seq)
	binary.BigEndian.PutUint64(buf[offTS:], uint64(ts))
	binary.BigEndian.PutUint32(buf[offCheck:], w.check(seq, ts))
}

// verify checks that f is the MAC-swapped copy of a frame the generator
// built, with sequence and timestamp intact, and returns them.
func (w *wireFrames) verify(f []byte) (seq uint64, ts int64, ok bool) {
	if len(f) != wireFrameSize {
		return 0, 0, false
	}
	seq = binary.BigEndian.Uint64(f[offSeq:])
	ts = int64(binary.BigEndian.Uint64(f[offTS:]))
	if binary.BigEndian.Uint32(f[offCheck:]) != w.check(seq, ts) {
		return 0, 0, false
	}
	t := w.flows[w.flowOf(seq)]
	if string(f[0:6]) != string(t[6:12]) || string(f[6:12]) != string(t[0:6]) ||
		string(f[12:offSeq]) != string(t[12:offSeq]) {
		return 0, 0, false
	}
	return seq, ts, true
}

// pacer sleeps the open-loop generator on a timerfd read through the
// network poller. The serve loop spins one CPU on runtime.Gosched, so
// the generator must not spin too (no P would be left to poll the
// network, starving the sink), and a runtime timer on an idle P is only
// as precise as the poller's millisecond timeout, while a timerfd wakes
// the poller when the kernel timer fires.
type pacer struct {
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "pacer")}, nil
}

func (p *pacer) sleep(d time.Duration) error {
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // interval, value
	rc, err := p.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if cerr := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); cerr != nil {
		return cerr
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err = p.f.Read(p.buf[:])
	return err
}

// wireRig is the assembled DUT plus the generator's and sink's ends.
type wireRig struct {
	gen, sink net.Conn
	// dutRX and dutTX are the DUT port's own socket ends, kept so an
	// expired phase can close them under a serve loop parked in I/O.
	dutRX, dutTX net.Conn
	port         *wire.Port
	timed        *timedPort
	dut          *testbed.DUT
	router       *click.Router
	engines      []testbed.Engine
	closeOnce    sync.Once
}

// newWireRig parses the mirror, opens both socketpairs, and assembles a
// one-core X-Change DUT on the wire port, wrapped in timedPort.
func newWireRig(seed uint64) (*wireRig, error) {
	p, err := core.Parse(nf.Mirror(0, 32))
	if err != nil {
		return nil, fmt.Errorf("wire-mirror: parse: %w", err)
	}
	p.Model = click.XChange
	rxNear, rxFar, err := wire.Socketpair()
	if err != nil {
		return nil, err
	}
	txNear, txFar, err := wire.Socketpair()
	if err != nil {
		rxNear.Close()
		rxFar.Close()
		return nil, err
	}
	w := &wireRig{gen: rxFar, sink: txFar, dutRX: rxNear, dutTX: txNear}
	w.port = wire.NewPort(wire.Config{Name: "dut0", RXRing: wireRing, TXRing: wireRing}, rxNear, txNear)
	w.timed = &timedPort{Port: w.port}
	w.dut, err = testbed.NewWireDUT(testbed.Options{Model: p.Model, Opt: p.Plan.Opt, Seed: seed},
		[]nic.Port{w.timed})
	if err != nil {
		w.close()
		return nil, fmt.Errorf("wire-mirror: DUT: %w", err)
	}
	routers, err := w.dut.BuildRouters(p.Plan.Graph)
	if err != nil {
		w.close()
		return nil, fmt.Errorf("wire-mirror: routers: %w", err)
	}
	w.router = routers[0]
	w.engines = []testbed.Engine{&routerEngine{rt: w.router}}
	return w, nil
}

// abort closes every socket end under the DUT and the harness without
// taking the port's lock, which a serve loop parked in a write holds.
// The parked call fails, and the serve loop can see its context again.
func (w *wireRig) abort() {
	w.dutRX.Close()
	w.dutTX.Close()
	w.gen.Close()
	w.sink.Close()
}

// close shuts the DUT's port and both far ends; safe to call again.
func (w *wireRig) close() {
	w.closeOnce.Do(func() {
		w.port.Close()
		w.gen.Close()
		w.sink.Close()
	})
}

// drops sums every counted loss on the DUT: wire RX and TX, the PMD's
// ledger, and the router's.
func (w *wireRig) drops() uint64 {
	rx, tx := w.port.RXStats(), w.port.TXStats()
	n := rx.DropFull + rx.DropRunt + rx.DropNoBuf + tx.DropFull + tx.DropTransient + tx.DropOversize
	for _, port := range w.dut.PortsFor[0] {
		n += port.Drops.Total()
	}
	return n + w.router.DropStats.Total()
}

// phaseSpec is one phase of the wire-mirror workload: a windowed loop
// (window > 0) or an open loop paced at ratePPS.
type phaseSpec struct {
	name    string
	window  int
	ratePPS float64
	dur     time.Duration
}

// phaseResult is what one phase measured and checked.
type phaseResult struct {
	sent, received, drops uint64
	// lost frames neither reached the sink nor were counted as drops.
	lost uint64
	// bad frames failed content verification or were duplicates.
	bad uint64
	// writeFails counts generator writes that errored; unsent counts
	// open-loop frames the generator fell too far behind to send.
	writeFails, unsent uint64
	expired            bool
	// rates are the sink rates (kpps) of the phase's rateSlice slices,
	// the first excluded as warm-up.
	rates []float64
	// lat holds one-way latencies (ns from the scheduled send time) on
	// open-loop phases, +Inf for every frame that never reached the
	// sink; late holds how late the generator sent each frame.
	lat, late []float64
	// allocs counts heap objects allocated over the phase's second half
	// and allocFrames the frames the sink took in that half.
	allocs, allocFrames uint64
	gen, sink           *tracer
}

// sinkState is shared between the sink goroutine and the phase runner.
type sinkState struct {
	received atomic.Uint64
	stop     atomic.Bool
	// progress wakes a generator waiting on a full window.
	progress chan struct{}
}

// runPhase drives one phase: the DUT serving on its own goroutine, the
// sink on another, the generator on the caller's. Every wait is bounded;
// an expired bound marks the phase expired and dumps goroutine stacks.
func runPhase(w *wireRig, frames *wireFrames, pc *pacer, ph phaseSpec, dutTr *tracer, traced bool) *phaseResult {
	res := &phaseResult{}
	if traced {
		base := time.Now()
		res.gen, res.sink = newTracer("generator", base), newTracer("sink", base)
	}
	open := ph.ratePPS > 0
	capFrames := int(ph.dur.Seconds()*2e6) + 1024
	if open {
		capFrames = int(ph.dur.Seconds()*ph.ratePPS) + 1024
		res.lat = make([]float64, 0, capFrames)
		res.late = make([]float64, 0, capFrames)
	}
	seen := make([]uint64, capFrames/64+1)
	slices := make([]uint32, int(ph.dur/rateSlice))
	drops0 := w.drops()

	w.timed.tr = dutTr
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() {
		dutTr.begin(spanServe)
		_, err := w.dut.ServeWire(ctx, w.engines, 0, 0)
		dutTr.end()
		served <- err
	}()

	st := sinkState{progress: make(chan struct{}, 1)}
	start := time.Now()
	var sinkWG sync.WaitGroup
	sinkWG.Add(1)
	go func() {
		defer sinkWG.Done()
		buf := make([]byte, 2048)
		for {
			if err := w.sink.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
				return
			}
			res.sink.begin(spanSinkRead)
			n, err := w.sink.Read(buf)
			if err != nil {
				res.sink.abort() // a timed-out wait is not a read
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() && !st.stop.Load() {
					continue
				}
				return
			}
			res.sink.end()
			now := int64(time.Since(start))
			seq, ts, ok := frames.verify(buf[:n])
			if !ok || seq >= uint64(len(seen))*64 || seen[seq/64]&(1<<(seq%64)) != 0 {
				res.bad++
				continue
			}
			seen[seq/64] |= 1 << (seq % 64)
			if open {
				res.lat = append(res.lat, float64(now-ts))
			}
			if i := now / int64(rateSlice); i < int64(len(slices)) {
				slices[i]++
			}
			st.received.Add(1)
			select {
			case st.progress <- struct{}{}:
			default:
			}
		}
	}()

	end := start.Add(ph.dur)
	if err := w.gen.SetWriteDeadline(end.Add(writeSlack)); err != nil {
		res.writeFails++
	}
	buf := make([]byte, wireFrameSize)
	send := func(seq uint64, ts int64) bool {
		frames.fill(buf, seq, ts)
		res.gen.begin(spanGenWrite)
		_, err := w.gen.Write(buf)
		res.gen.end()
		if err != nil {
			res.writeFails++
			return false
		}
		res.sent++
		return true
	}
	gap := 0.0
	if open {
		gap = 1e9 / ph.ratePPS
	}
	stall := time.NewTimer(drainGrace)
	defer stall.Stop()
	var a0, r0 uint64
	half := false
gen:
	for {
		now := time.Now()
		if res.sent >= uint64(capFrames) {
			break
		}
		if !half && now.Sub(start) >= ph.dur/2 {
			half, a0, r0 = true, readGC().mallocs, st.received.Load()
		}
		if !open {
			if !now.Before(end) {
				break
			}
			if res.sent-st.received.Load() >= uint64(ph.window) {
				stall.Reset(drainGrace)
				select {
				case <-st.progress:
				case <-stall.C:
					break gen // the window stalled: the missing frames count as lost
				}
				continue
			}
			if !send(res.sent, int64(now.Sub(start))) {
				break
			}
			continue
		}
		// Open loop: every frame scheduled within the phase is sent, however
		// late, unless the generator falls a whole writeSlack behind.
		if float64(res.sent)*gap >= float64(ph.dur) {
			break
		}
		if now.After(end.Add(writeSlack)) {
			res.unsent = uint64(math.Ceil(float64(ph.dur)/gap)) - res.sent
			break
		}
		off := int64(now.Sub(start))
		for {
			due := int64(float64(res.sent) * gap)
			if due > off || due >= int64(ph.dur) {
				break
			}
			res.late = append(res.late, float64(off-due))
			if !send(res.sent, due) {
				break gen
			}
		}
		if next := time.Duration(float64(res.sent)*gap) - time.Since(start); next > 0 {
			if err := pc.sleep(next); err != nil {
				res.writeFails++
				break
			}
		}
	}
	if half {
		res.allocs = readGC().mallocs - a0
		res.allocFrames = st.received.Load() - r0
	}

	// Wait for in-flight frames to reach the sink. Only lock-free counters
	// are read until the serve loop has returned: a serve loop parked in
	// a write holds its port's lock, which the port's stats calls take.
	deadline := time.Now().Add(drainGrace)
	for st.received.Load() < res.sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	stopped := waitErr(served, stopGrace)
	if !stopped {
		res.expired = true
		dumpStacks(fmt.Sprintf("wire-mirror %s: ServeWire did not return within %v of cancel", ph.name, stopGrace))
		w.abort()
		if stopped = waitErr(served, stopGrace); !stopped {
			dumpStacks("wire-mirror: ServeWire still running after its sockets closed")
		}
	}
	st.stop.Store(true)
	sinkWG.Wait()
	w.timed.tr = nil

	res.received = st.received.Load()
	if stopped {
		res.drops = w.drops() - drops0
	}
	for i := 1; i < len(slices); i++ {
		res.rates = append(res.rates, float64(slices[i])/rateSlice.Seconds()/1e3)
	}
	if got := res.received + res.drops; got < res.sent {
		res.lost = res.sent - got
		if !res.expired {
			res.expired = true
			dumpStacks(fmt.Sprintf("wire-mirror %s: %d frames missing after the %v drain bound", ph.name, res.lost, drainGrace))
		}
	}
	if open {
		missing := res.sent - min(res.received, res.sent) + res.unsent + res.writeFails
		for i := uint64(0); i < missing; i++ {
			res.lat = append(res.lat, math.Inf(1))
		}
	}
	return res
}

// merge pools another run of the same phase into res.
func (res *phaseResult) merge(o *phaseResult) {
	res.sent += o.sent
	res.received += o.received
	res.drops += o.drops
	res.lost += o.lost
	res.bad += o.bad
	res.writeFails += o.writeFails
	res.unsent += o.unsent
	res.expired = res.expired || o.expired
	res.rates = append(res.rates, o.rates...)
	res.lat = append(res.lat, o.lat...)
	res.late = append(res.late, o.late...)
	res.allocs += o.allocs
	res.allocFrames += o.allocFrames
}

// waitErr waits up to d for ch to deliver; it reports whether it did.
func waitErr(ch <-chan error, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// book adds a phase's operations and failed checks to the report. An
// operation is a frame the generator was to send; it fails unless the
// sink received it intact. A frame the DUT dropped and counted fails
// its operation but breaks no output check: shedding load is correct.
func (res *phaseResult) book(r *report, name string) {
	r.attempted += res.sent + res.writeFails + res.unsent
	if res.writeFails > 0 {
		r.fail(res.writeFails, "%s: %d generator writes failed", name, res.writeFails)
	}
	if res.unsent > 0 {
		r.fail(res.unsent, "%s: the generator fell %v behind and left %d frames unsent", name, writeSlack, res.unsent)
	}
	if res.drops > 0 {
		r.failed += res.drops
		r.note("%s: the DUT dropped %d frames (failed operations)", name, res.drops)
	}
	if res.lost > 0 {
		r.fail(res.lost, "%s: %d sent frames reached neither the sink nor a drop counter", name, res.lost)
	}
	if res.bad > 0 {
		r.fail(res.bad, "%s: %d sink frames were not a MAC-swapped copy of a sent frame", name, res.bad)
	}
	if res.received+res.drops > res.sent {
		r.fail(1, "%s: sent %d < received %d + drops %d", name, res.sent, res.received, res.drops)
	}
	if res.expired && res.lost == 0 {
		r.fail(1, "%s: phase bound expired", name)
	}
}

// latUS returns the q-quantile of an open-loop phase's latencies in µs.
// A quantile that lands on a frame that never arrived reads as bound,
// which that frame missed.
func (res *phaseResult) latUS(q float64, bound time.Duration) float64 {
	v := quantile(res.lat, q)
	if v > float64(bound) {
		v = float64(bound)
	}
	return v / 1e3
}

// wireCycles is how many times a wire-mirror run cycles through its
// phases, so that slow drifts of the host's speed fall on every phase
// alike; each phase's figures pool its runs.
const wireCycles = 3

// newWireRigTimed assembles a rig and reports how long that took.
func newWireRigTimed(seed uint64) (*wireRig, float64, error) {
	runtime.GC() // each round starts from a collected heap
	t := time.Now()
	w, err := newWireRig(seed)
	return w, time.Since(t).Seconds(), err
}

// runWireWorkload runs wire-mirror: wireCycles cycles of the windowed
// phase and the low- and high-rate open-loop phases, with a set-up
// round before each phase. A traced cycle adds an untraced windowed
// phase first, as the overhead baseline.
func runWireWorkload(seed uint64, seconds float64, traced bool, spansPath string) (*report, error) {
	r := newReport("wire-mirror")
	gc0 := readGC()
	w, setup, err := newWireRigTimed(seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	setups := []float64{setup}
	pc, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pc.f.Close()

	frames := newWireFrames(seed)
	slot := time.Duration(seconds*float64(time.Second)) / wireCycles
	cycle := []phaseSpec{
		{name: "windowed", window: wireWindow, dur: slot * 4 / 10},
		{name: "open-low", ratePPS: wireLowPPS, dur: slot * 3 / 10},
		{name: "open-high", ratePPS: wireHighPPS, dur: slot * 3 / 10},
	}
	var dutTr *tracer
	if traced {
		dutTr = newTracer("dut", time.Now())
		base := cycle[0]
		base.name, base.dur = "windowed-untraced", slot*2/10
		cycle[0].dur = slot * 2 / 10
		cycle = append([]phaseSpec{base}, cycle...)
	}

	pooled := map[string]*phaseResult{}
	var tracers []*tracer
	var forwarded uint64
	rx0, tx0 := w.port.RXStats(), w.port.TXStats()
	pmd0 := w.dut.PortsFor[0][0].Stats
	expired := false
	for c := 0; c < wireCycles && !expired; c++ {
		order := cycle
		if traced && c%2 == 1 {
			// Alternate which windowed phase goes first, so a drift of the
			// host's speed falls on neither side of the overhead.
			order = append([]phaseSpec{cycle[1], cycle[0]}, cycle[2:]...)
		}
		for _, ph := range order {
			rig, setup, err := newWireRigTimed(seed)
			if err != nil {
				return nil, err
			}
			rig.close()
			setups = append(setups, setup)

			phTraced := traced && ph.name != "windowed-untraced"
			var tr *tracer
			if phTraced {
				tr = dutTr
			}
			res := runPhase(w, frames, pc, ph, tr, phTraced)
			if phTraced {
				tracers = append(tracers, res.gen, res.sink)
				forwarded += res.received
			}
			if pooled[ph.name] == nil {
				pooled[ph.name] = &phaseResult{}
			}
			pooled[ph.name].merge(res)
			if res.expired {
				expired = true
				break
			}
		}
	}
	for _, ph := range cycle {
		if res := pooled[ph.name]; res != nil {
			res.book(r, ph.name)
		}
	}
	if err := w.dut.Audit(); err != nil {
		r.fail(1, "wire-mirror: audit after drain: %v", err)
	}
	r.set("setup_s", median(setups))
	// The peak of the wire phases alone: the model reference below runs
	// the simulated testbed, whose footprint is not the wire path's.
	mem, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.set("mem_peak_mib", mem)
	if err := wireModelRef(r, seed); err != nil {
		return nil, err
	}
	if win := pooled["windowed"]; win != nil && len(win.rates) > 0 {
		kpps := median(win.rates)
		r.set("host_kpps", kpps)
		r.note("wire_fwd_kpps %s kpps (window %d frames, median of %d slices of %v, %d received)",
			fmtValue(kpps), wireWindow, len(win.rates), rateSlice, win.received)
		if base := pooled["windowed-untraced"]; base != nil && len(base.rates) > 0 {
			r.set("trace.overhead_share", median(base.rates)/kpps-1)
		}
		if win.allocFrames > 0 {
			r.set("runtime.allocs_per_pkt", float64(win.allocs)/float64(win.allocFrames))
		}
	}
	bound := cycle[len(cycle)-1].dur + drainGrace
	for _, lv := range []struct {
		phase, suffix string
		pps           float64
	}{{"open-low", "low", wireLowPPS}, {"open-high", "high", wireHighPPS}} {
		res := pooled[lv.phase]
		if res == nil {
			continue
		}
		r.set("lat_p50_us_"+lv.suffix, res.latUS(0.5, bound))
		r.set("lat_p99_us_"+lv.suffix, res.latUS(0.99, bound))
		r.note("wire_lat_p50_us_%s %s us, wire_lat_p99_us_%s %s us (open loop %g fps, %d samples, generator late p99 %s us)",
			lv.suffix, fmtValue(r.values["lat_p50_us_"+lv.suffix]), lv.suffix,
			fmtValue(r.values["lat_p99_us_"+lv.suffix]), lv.pps, len(res.lat),
			fmtValue(quantile(res.late, 0.99)/1e3))
	}

	gc1 := readGC()
	var sent uint64
	for _, res := range pooled {
		sent += res.sent
	}
	if sent > 0 {
		r.set("runtime.allocs_per_pkt_whole", float64(gc1.mallocs-gc0.mallocs)/float64(sent))
	}
	r.set("runtime.gc_cycles", float64(gc1.cycles-gc0.cycles))
	r.set("runtime.gc_pause_ms", float64(gc1.pauseNS-gc0.pauseNS)/1e6)

	if traced {
		var late []float64
		for _, name := range []string{"open-low", "open-high"} {
			if res := pooled[name]; res != nil {
				late = append(late, res.late...)
			}
		}
		wireLayers(r, w, dutTr, tracers, late, forwarded, rx0, tx0, pmd0)
		if spansPath != "" {
			if err := writeSpans(spansPath, "wire-mirror", append([]*tracer{dutTr}, tracers...)); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

// wireLayers fills the traced run's per-layer wire, generator and sink
// figures.
func wireLayers(r *report, w *wireRig, dutTr *tracer, tracers []*tracer, late []float64,
	forwarded uint64, rx0 nic.RXQueueStats, tx0 nic.TXQueueStats, pmd0 dpdk.PortStats) {
	tp := w.timed
	r.set("wire.poll_ns", dutTr.meanNS(spanPoll))
	r.set("wire.enqueue_ns", dutTr.meanNS(spanEnqueue))
	r.set("wire.reap_ns", dutTr.meanNS(spanReap))
	r.set("wire.post_ns", dutTr.meanNS(spanPost))
	if busy := tp.polls - tp.emptyPolls; busy > 0 {
		r.set("wire.poll_batch", float64(tp.polled)/float64(busy))
	}
	// The PMD skips Poll on an empty ring, so empty polls are counted
	// where they happen: by the PMD port's RxBurst ledger.
	if pmd := w.dut.PortsFor[0][0].Stats; pmd.Polls > pmd0.Polls {
		r.set("wire.empty_poll_share", float64(pmd.EmptyPolls-pmd0.EmptyPolls)/float64(pmd.Polls-pmd0.Polls))
	}
	if tp.pendingN > 0 {
		r.set("wire.rx_pending", float64(tp.pendingSum)/float64(tp.pendingN))
	}
	rx, tx := w.port.RXStats(), w.port.TXStats()
	r.set("wire.rx_drop_full", float64(rx.DropFull-rx0.DropFull))
	r.set("wire.tx_drop", float64(tx.DropFull+tx.DropTransient+tx.DropOversize-
		tx0.DropFull-tx0.DropTransient-tx0.DropOversize))
	if forwarded > 0 {
		r.set("testbed.serve_self_ns_per_pkt", float64(dutTr.layer(spanServe).SelfNS)/float64(forwarded))
	}
	var writes, reads layerAgg
	for _, t := range tracers {
		a, b := t.layer(spanGenWrite), t.layer(spanSinkRead)
		writes.Count += a.Count
		writes.TotalNS += a.TotalNS
		reads.Count += b.Count
		reads.TotalNS += b.TotalNS
	}
	if writes.Count > 0 {
		r.set("gen.write_ns", float64(writes.TotalNS)/float64(writes.Count))
	}
	if reads.Count > 0 {
		r.set("sink.read_ns", float64(reads.TotalNS)/float64(reads.Count))
	}
	r.set("gen.late_us_p99", quantile(late, 0.99)/1e3)
}

// wireModelRef runs the same NF and frame size on the simulated testbed:
// the modeled rate beside the host one. It guards the reproduced model —
// deterministic, so a host-only change leaves it exactly equal — and
// never touches the wire. At 0.8 GHz the core, not the modeled NIC's
// 11.8 Mpps queue cap, bounds the rate. Mirror's cost is the same for
// every 64 B frame, so the seed draws the run's frame count, which moves
// the warm-up's share of the run and with it the last digits.
func wireModelRef(r *report, seed uint64) error {
	p, err := core.Parse(nf.Mirror(0, 32))
	if err != nil {
		return fmt.Errorf("wire-mirror: model reference: %w", err)
	}
	p.Model = click.XChange
	o := testbed.Options{
		FreqGHz: 0.8, RateGbps: 100, Packets: 40000 + int(mix64(seed)%20000), Seed: seed,
		Model: p.Model, Opt: p.Plan.Opt,
		Traffic: func(_ int, cfg trafficgen.Config) trafficgen.Source {
			cfg.Flows, cfg.UDPShare = wireFlows, 1
			return trafficgen.NewFixedSize(cfg, wireFrameSize)
		},
	}
	run := r.check("wire-mirror model reference")(runSim(p.Plan.Graph, o, nil))
	if run == nil {
		return nil
	}
	r.set("model_mpps_per_core", run.res.Mpps())
	r.note("model_mpps_per_core %s Mpps (simulated testbed, the same NF on 64 B frames at 0.8 GHz)", fmtValue(run.res.Mpps()))
	return nil
}
