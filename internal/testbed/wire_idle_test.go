package testbed

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/wire"
)

// TestWireIdleCoreParks: a core with nothing to do parks on its doorbell
// instead of spinning. A 1-core mirror that sees no traffic until its
// 300 ms idle exit wakes about once per parkBound, a few hundred rounds
// in all; a spinning loop runs hundreds of thousands.
func TestWireIdleCoreParks(t *testing.T) {
	d, engs, _ := buildWireMirrorRig(t, 1, Options{Model: click.XChange, Seed: 7})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := d.ServeWire(ctx, []Engine{engs[0]}, 300*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d scheduling rounds", st.Steps)
	if st.Steps >= 5000 {
		t.Fatalf("an idle 300 ms session ran %d scheduling rounds, want < 5000 (the core spins instead of parking)", st.Steps)
	}
}

// TestWireDoorbellWakesParkedCore: with parkBound raised to 10 s, only
// the doorbell can wake a parked core in time. Fifty frames, each sent
// after 2 ms of quiet so every core has parked, must each come back
// mirrored within a second — one lost wake-up fails the test — and a
// canceled session must return at once, not after the park bound. N=1
// serves a socket-fed port, N=2 a Fanout's queues.
func TestWireDoorbellWakesParkedCore(t *testing.T) {
	saved := parkBound
	parkBound = 10 * time.Second
	t.Cleanup(func() { parkBound = saved })
	for _, cores := range []int{1, 2} {
		t.Run(fmt.Sprintf("N=%d", cores), func(t *testing.T) { runDoorbellWake(t, cores) })
	}
}

func runDoorbellWake(t *testing.T, cores int) {
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
	cfg := wire.Config{Name: "dut"}
	devsPerCore := make([][]nic.Port, cores)
	if cores == 1 {
		p := wire.NewPort(cfg, rxNear, txNear)
		defer p.Close()
		devsPerCore[0] = []nic.Port{p}
	} else {
		f := wire.NewFanout(cfg, cores, rxNear, txNear)
		defer f.Close()
		for c := range devsPerCore {
			devsPerCore[c] = []nic.Port{f.Queue(c)}
		}
	}
	d, engines, err := NewWireGraphPerCore(mustParse(t, nf.Mirror(0, 32)),
		Options{Model: click.XChange, Seed: 7}, devsPerCore)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		st  WireServeStats
		err error
	}
	served := make(chan result, 1)
	go func() {
		st, err := d.ServeWire(ctx, engines, 0, 0)
		served <- result{st, err}
	}()

	frames := campusFrames(50)
	hit := make([]int, cores)
	buf := make([]byte, 4096)
	for i, frame := range frames {
		time.Sleep(2 * time.Millisecond)
		hit[nic.Queue(frame, cores)]++
		sent := time.Now()
		if _, err := rxFar.Write(frame); err != nil {
			t.Fatal(err)
		}
		if err := txFar.SetReadDeadline(sent.Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := txFar.Read(buf); err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatalf("frame %d (core %d) not forwarded within 1 s: the parked core missed its doorbell",
					i, nic.Queue(frame, cores))
			}
			t.Fatal(err)
		}
	}
	for c, n := range hit {
		if n == 0 {
			t.Fatalf("no frame went to core %d; the test must wake every core", c)
		}
	}

	canceled := time.Now()
	cancel()
	var res result
	select {
	case res = <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeWire still running 5 s after cancel")
	}
	if took := time.Since(canceled); took > 100*time.Millisecond {
		t.Errorf("ServeWire returned %v after cancel, want < 100ms", took)
	}
	if res.err != context.Canceled {
		t.Errorf("ServeWire: %v, want context.Canceled", res.err)
	}
	t.Logf("%d scheduling rounds", res.st.Steps)
	// Parked cores run a bounded number of rounds per frame (a burst of
	// empty ones before each park); a spinning core would run millions.
	if res.st.Steps >= 10000 {
		t.Errorf("%d scheduling rounds for %d frames: the cores did not park", res.st.Steps, len(frames))
	}
}
