package testbed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/machine"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/overload"
	"packetmill/internal/wire"
)

// stallSlack is how long past its bound a stall may take to surface: the
// core notices on its next idle round and core 0 on its next read of
// the others' progress, both within milliseconds, plus scheduling noise
// under the race detector on a shared P.
const stallSlack = 2 * time.Second

// TestWireStallSingleCore: frames that sit pending on a core whose
// engine never steps them are a wedge, not idleness. Even with a 300 ms
// idle exit, shorter than the stall bound, the session must end in a
// *StallError naming core 0 within the bound plus slack, its snapshot
// showing the pending frames and every goroutine's stack.
func TestWireStallSingleCore(t *testing.T) {
	rxNear, rxFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	txNear, txFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	defer rxFar.Close()
	defer txFar.Close()
	p := wire.NewPort(wire.Config{Name: "dut"}, rxNear, txNear)
	defer p.Close()
	d, err := NewWireDUT(Options{Model: click.XChange, Seed: 7}, []nic.Port{p})
	if err != nil {
		t.Fatal(err)
	}
	frames := campusFrames(16)
	for _, f := range frames {
		if _, err := rxFar.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); p.PendingCount() < len(frames); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames reached the RX ring", p.PendingCount(), len(frames))
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = d.ServeWire(ctx, []Engine{inertEngine{}}, 300*time.Millisecond, 0)
	took := time.Since(start)
	stall := wantStall(t, err, 0)
	if took < wireStallBound || took > wireStallBound+stallSlack {
		t.Errorf("stall surfaced after %v, want within [%v, %v]", took, wireStallBound, wireStallBound+stallSlack)
	}
	if !regexp.MustCompile(`core0 port0: .*pendingRx=[1-9]`).MatchString(stall.Snapshot) {
		t.Errorf("snapshot shows no pending frames on core 0:\n%s", stall.Snapshot)
	}
	if !strings.Contains(stall.Snapshot, "goroutine ") || !strings.Contains(stall.Snapshot, "ServeWire") {
		t.Errorf("snapshot carries no goroutine dump naming ServeWire:\n%s", stall.Snapshot)
	}
}

// TestWireStallOneCoreOfTwo: one wedged core among working ones. Over a
// 2-core wire.Fanout, core 0 mirrors its frames while core 1's engine
// never steps; the session must end in a *StallError naming core 1,
// with core 0's frames all forwarded.
func TestWireStallOneCoreOfTwo(t *testing.T) {
	d, hit, took, err := serveHalfWedgedFanout(t, nil)
	stall := wantStall(t, err, 1)
	if took > wireStallBound+stallSlack {
		t.Errorf("stall surfaced after %v, want within %v", took, wireStallBound+stallSlack)
	}
	if !regexp.MustCompile(`core1 port0: .*pendingRx=[1-9]`).MatchString(stall.Snapshot) {
		t.Errorf("snapshot shows no pending frames on core 1:\n%s", stall.Snapshot)
	}
	if res := d.WireResult(); res.TxWire != uint64(hit[0]) {
		t.Errorf("core 0 forwarded %d frames, want its %d", res.TxWire, hit[0])
	}
}

// TestWireStallRestartThenFail: with the overload control plane armed,
// the wedged core's first trip drain-restarts it instead of failing.
// The restart cannot relieve an inert engine, so the second trip, one
// bound later, still ends the session. The ledger counts one restart,
// and the report books it on core 1 alone.
func TestWireStallRestartThenFail(t *testing.T) {
	d, _, took, err := serveHalfWedgedFanout(t, &overload.Config{Policy: overload.PolicyTailDrop})
	wantStall(t, err, 1)
	if took < 2*wireStallBound || took > 2*wireStallBound+stallSlack {
		t.Errorf("stall surfaced after %v, want within [%v, %v]", took, 2*wireStallBound, 2*wireStallBound+stallSlack)
	}
	if got := d.WireResult().WatchdogRestarts; got != 1 {
		t.Errorf("WatchdogRestarts = %d, want 1", got)
	}
	rep := d.buildReport(d.WireResult(), nil)
	for c, want := range []uint64{0, 1} {
		if got := rep.Overload[c].WatchdogRestarts; got != want {
			t.Errorf("core %d's report entry counts %d restarts, want %d", c, got, want)
		}
	}
}

// serveHalfWedgedFanout serves a 2-core wire.Fanout, with ovl as the
// overload config, whose core 0 mirrors while core 1's engine is inert,
// and frames for both cores queued. It returns the DUT, the frames sent
// to each core, how long ServeWire ran, and its error.
func serveHalfWedgedFanout(t *testing.T, ovl *overload.Config) (*DUT, []int, time.Duration, error) {
	t.Helper()
	rxNear, rxFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	txNear, txFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rxFar.Close(); txFar.Close() })
	f := wire.NewFanout(wire.Config{Name: "dut"}, 2, rxNear, txNear)
	t.Cleanup(func() { f.Close() })
	d, engines, err := NewWireGraphPerCore(mustParse(t, nf.Mirror(0, 32)),
		Options{Model: click.XChange, Seed: 7, Overload: ovl},
		[][]nic.Port{{f.Queue(0)}, {f.Queue(1)}})
	if err != nil {
		t.Fatal(err)
	}
	engines[1] = inertEngine{}
	go drainConn(txFar)
	hit := make([]int, 2)
	for _, frame := range campusFrames(64) {
		hit[nic.Queue(frame, 2)]++
		if _, err := rxFar.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if hit[0] == 0 || hit[1] == 0 {
		t.Fatalf("frames per core %v: the test needs traffic on both", hit)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err = d.ServeWire(ctx, engines, 300*time.Millisecond, 0)
	return d, hit, time.Since(start), err
}

// wantStall asserts err is a *StallError naming core.
func wantStall(t *testing.T, err error, core int) *StallError {
	t.Helper()
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("ServeWire: %v, want *StallError", err)
	}
	if stall.Core != core || !strings.Contains(err.Error(), fmt.Sprintf("core %d stalled", core)) {
		t.Fatalf("stall names core %d (%q), want core %d", stall.Core, strings.SplitN(err.Error(), "\n", 2)[0], core)
	}
	return stall
}

// drainConn reads conn until it fails, so the DUT's TX never waits on a
// full socket.
func drainConn(conn net.Conn) {
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			return
		}
	}
}

// TestWireStallClockStartsWithPendingWork: a stall window opens when
// work turns up, not at the last round that moved packets. A core that
// idles for longer than the stall bound and then misses its first
// rounds after frames arrive (its engine skips them) is slow, not
// wedged: the frames must come back mirrored and the session must end
// on its context, not in a *StallError.
func TestWireStallClockStartsWithPendingWork(t *testing.T) {
	rxNear, rxFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	txNear, txFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	defer rxFar.Close()
	defer txFar.Close()
	p := wire.NewPort(wire.Config{Name: "dut"}, rxNear, txNear)
	defer p.Close()
	d, engines, err := NewWireGraphPerCore(mustParse(t, nf.Mirror(0, 32)),
		Options{Model: click.XChange, Seed: 7}, [][]nic.Port{{p}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	served := make(chan error, 1)
	go func() {
		_, err := d.ServeWire(ctx, []Engine{&laggingEngine{Engine: engines[0], port: p, skip: 3}}, 0, 0)
		served <- err
	}()
	time.Sleep(wireStallBound + 100*time.Millisecond)
	frames := campusFrames(8)
	for _, f := range frames {
		if _, err := rxFar.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := txFar.SetReadDeadline(time.Now().Add(stallSlack)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := range frames {
		if _, err := txFar.Read(buf); err != nil {
			cancel()
			t.Fatalf("frame %d not mirrored (%v); ServeWire: %v", i, err, <-served)
		}
	}
	cancel()
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Fatalf("ServeWire: %v, want context.Canceled", err)
	}
}

// laggingEngine skips its first skip rounds that find frames pending on
// port before it steps the Engine it wraps.
type laggingEngine struct {
	Engine
	port nic.Port
	skip int
}

func (e *laggingEngine) Step(core *machine.Core, now float64) int {
	if e.skip > 0 && e.port.PendingCount() > 0 {
		e.skip--
		return 0
	}
	return e.Engine.Step(core, now)
}

// TestWireWindowExcludesIdleTail: a wire session measures the rounds
// that moved packets, not the idle exit's wait. A few hundred mirrored
// frames followed by a 300 ms idle exit must report a Duration well
// under 300 ms, and Counters that leave out the empty polls of that
// tail: at least the idleSpins rounds a core runs before it parks.
func TestWireWindowExcludesIdleTail(t *testing.T) {
	const idleExit = 300 * time.Millisecond
	rxNear, rxFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	txNear, txFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	defer rxFar.Close()
	defer txFar.Close()
	p := wire.NewPort(wire.Config{Name: "dut"}, rxNear, txNear)
	defer p.Close()
	d, engines, err := NewWireGraphPerCore(mustParse(t, nf.Mirror(0, 32)),
		Options{Model: click.XChange, Seed: 7}, [][]nic.Port{{p}})
	if err != nil {
		t.Fatal(err)
	}
	go drainConn(txFar)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	served := make(chan error, 1)
	go func() {
		_, err := d.ServeWire(ctx, engines, idleExit, 0)
		served <- err
	}()
	frames := campusFrames(300)
	for _, f := range frames {
		if _, err := rxFar.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	res := d.WireResult()
	if res.Offered != uint64(len(frames)) || res.TxWire == 0 {
		t.Fatalf("%d frames offered, %d forwarded; want all %d offered, some forwarded",
			res.Offered, res.TxWire, len(frames))
	}
	t.Logf("window %.1f ms, %.0f instr/frame", res.Duration/1e6,
		float64(res.Counters.Instructions)/float64(res.TxWire))
	if res.Duration <= 0 || res.Duration > float64(idleExit)/2 {
		t.Errorf("Duration %.1f ms, want within (0, %v]: the idle exit's wait is in the window",
			res.Duration/1e6, idleExit/2)
	}
	// The session's whole count, and what one more empty poll costs.
	core := d.Cores[0]
	whole := core.Snapshot().Instructions
	engines[0].Step(core, float64(time.Hour))
	poll := core.Snapshot().Instructions - whole
	if poll == 0 {
		t.Fatal("an empty poll costs no modeled instructions; the check below would prove nothing")
	}
	if out := whole - res.Counters.Instructions; out < idleSpins*poll {
		t.Errorf("window leaves out %d of the session's %d instructions, want >= %d (%d empty polls of %d): the idle tail is in the counters",
			out, whole, idleSpins*poll, idleSpins, poll)
	}
}
