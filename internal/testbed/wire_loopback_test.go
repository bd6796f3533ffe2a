package testbed

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/mill"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/trafficgen"
	"packetmill/internal/wire"
	"packetmill/internal/wire/pcapio"
)

// TestWireLoopback is the subsystem's end-to-end proof: a recorded
// campus trace goes to a pcap file, comes back as a replay source, and
// is pushed over real datagram sockets through a milled NAT-router
// serving on a live wire port. The captured output must match, packet
// by packet and byte for byte, what the simulated testbed produces for
// the identical input — the sim run is the oracle, which is sound
// because every element in the NAT config is arrival-order
// deterministic.
func TestWireLoopback(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model click.MetadataModel
	}{
		{"Copying", click.Copying},
		{"XChange", click.XChange},
	} {
		t.Run(tc.name, func(t *testing.T) { runWireLoopback(t, tc.model) })
	}
}

func runWireLoopback(t *testing.T, model click.MetadataModel) {
	const nFrames = 200

	// When WIRE_PCAP_DIR is set (the CI job sets it), keep the input
	// pcap there and dump the expected/captured frame sets as pcaps on
	// failure, so the run's captures can be uploaded as artifacts.
	// t.TempDir is destroyed even on failure, so it only serves the
	// passing path.
	var want, got [][]byte
	artifactDir := os.Getenv("WIRE_PCAP_DIR")
	workDir := artifactDir
	if workDir == "" {
		workDir = t.TempDir()
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		t.Fatal(err)
	}
	base := strings.ReplaceAll(t.Name(), "/", "_")
	t.Cleanup(func() {
		if !t.Failed() || artifactDir == "" {
			return
		}
		dumpPcap(t, filepath.Join(artifactDir, base+"-expected.pcap"), want)
		dumpPcap(t, filepath.Join(artifactDir, base+"-captured.pcap"), got)
	})

	plan := milledNATRouter(t)

	// The workload: a recorded slice of the campus mix, modest rate so
	// the simulated oracle run is lossless.
	gcfg := trafficgen.Config{Seed: 7, Flows: 64, RateGbps: 1, Count: nFrames}
	trace := trafficgen.Record(trafficgen.NewCampus(gcfg), nFrames)

	// Oracle: the same trace through the simulated testbed, tapping
	// every frame that leaves the DUT.
	oracleOpts := Options{
		Model: model, Cores: 1, NICs: 1, Seed: 7,
		RateGbps: 1, Packets: nFrames,
		Traffic: func(int, trafficgen.Config) trafficgen.Source { return trace.Replay(1) },
		Tap: func(frame []byte, _ float64) {
			want = append(want, append([]byte(nil), frame...))
		},
	}
	oracle, err := RunGraph(plan.Graph, oracleOpts)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	// Engine drops (Discard, unresolved ARP) are part of the NF's
	// semantics and replay identically on the wire; any *capacity* drop
	// (ring full, pool exhausted) is timing-dependent and would poison
	// the oracle.
	if capacity := oracle.Dropped - oracle.DropsByReason.Get(stats.DropEngine); capacity != 0 {
		t.Fatalf("oracle run lost %d packets to capacity (%v); the comparison needs a lossless reference",
			capacity, oracle.DropsByReason.Map())
	}
	if len(want) == 0 {
		t.Fatal("oracle run produced no output frames")
	}

	// Trace → pcap file → replay trace: the capture round trip is part
	// of the path under test.
	pcapPath := filepath.Join(workDir, base+"-input.pcap")
	f, err := os.Create(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ToPcap(f, pcapio.WriterOptions{Nanosecond: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := trafficgen.TraceFromPcap(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if replay.Len() != nFrames {
		t.Fatalf("pcap round trip lost frames: %d of %d", replay.Len(), nFrames)
	}

	// The wire: generator port and DUT port joined by socketpairs. The
	// DUT ring must hold the whole burst — the generator does not pace.
	gen, dut, err := wire.Loopback(
		wire.Config{Name: "gen", RXRing: 512, TXRing: 512},
		wire.Config{Name: "dut", RXRing: 512, TXRing: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	defer dut.Close()

	// The device under test serves in its own goroutine, exiting once
	// the wire has been idle — a separate process in spirit.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		d, engines, err := NewWireGraphPerCore(plan.Graph,
			Options{Model: model, Seed: 7}, [][]nic.Port{{dut}})
		if err == nil {
			_, err = d.ServeWire(ctx, engines, 300*time.Millisecond, 0)
		}
		if err == nil {
			err = d.Audit()
		}
		serveDone <- err
	}()

	// Capture side: enough posted buffers for every expected frame.
	for i := 0; i < len(want)+32; i++ {
		if err := gen.Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); err != nil {
			t.Fatal(err)
		}
	}

	// Replay the pcap onto the wire, recycling one TX buffer.
	tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
	reap := make([]*pktbuf.Packet, 1)
	src := replay.Replay(1)
	for {
		frame, _, ok := src.Next()
		if !ok {
			break
		}
		tx.Reset(tx.OrigHeadroom())
		tx.SetFrame(frame)
		if !gen.Enqueue(nil, tx, 0) {
			t.Fatal("generator Enqueue refused")
		}
		deadline := time.Now().Add(5 * time.Second)
		for gen.Reap(0, reap) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("generator TX buffer never came back")
			}
			runtime.Gosched()
		}
	}

	// Collect the DUT's output until every expected frame arrived.
	pkts := make([]*pktbuf.Packet, 32)
	descs := make([]nic.Descriptor, 32)
	deadline := time.Now().Add(20 * time.Second)
	for len(got) < len(want) && time.Now().Before(deadline) {
		n := gen.Poll(nil, 0, len(pkts), pkts, descs)
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), pkts[i].Bytes()...))
		}
		if n == 0 {
			runtime.Gosched()
		}
	}

	if err := <-serveDone; err != nil {
		t.Fatalf("wire serve: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("captured %d frames, oracle produced %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d differs from the simulated oracle (%d vs %d bytes)",
				i, len(got[i]), len(want[i]))
		}
	}
}

// milledNATRouter is configs/nat-router.click through the full
// PacketMill pass pipeline — the NF the wire-vs-simulator oracles run.
// Every element in it is arrival-order deterministic, so one core's
// output depends only on the frames that core was given, in order.
func milledNATRouter(t *testing.T) *mill.Plan {
	t.Helper()
	cfgSrc, err := os.ReadFile("../../configs/nat-router.click")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mill.NewPlan(string(cfgSrc))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Apply(mill.PacketMill()...); err != nil {
		t.Fatal(err)
	}
	return plan
}

// dumpPcap writes a frame set as a nanosecond pcap (frame index as the
// timestamp) for post-mortem artifact collection; failures to write are
// logged, not fatal — the test has already failed.
func dumpPcap(t *testing.T, path string, frames [][]byte) {
	f, err := os.Create(path)
	if err != nil {
		t.Logf("artifact dump: %v", err)
		return
	}
	defer f.Close()
	w, err := pcapio.NewWriter(f, pcapio.WriterOptions{Nanosecond: true})
	if err != nil {
		t.Logf("artifact dump: %v", err)
		return
	}
	for i, fr := range frames {
		if err := w.WriteFrame(fr, int64(i)); err != nil {
			t.Logf("artifact dump: %v", err)
			return
		}
	}
	if err := w.Flush(); err != nil {
		t.Logf("artifact dump: %v", err)
	}
}

// TestWireServesFramesQueuedBeforeSetup: frames that fill a live port's
// RX ring before the DUT is built must still be served. The PMD once
// counted those pending frames as posted buffers and posted none, so
// nothing could ever be polled and the session idled out having moved
// nothing (seen as the multicore exhibit's 1-core row reading 0 frames
// when its generator outran DUT setup).
func TestWireServesFramesQueuedBeforeSetup(t *testing.T) {
	const ring = 16
	gen, dut, err := wire.Loopback(wire.Config{Name: "gen", RXRing: 64},
		wire.Config{Name: "dut", RXRing: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	defer dut.Close()
	tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
	reap := make([]*pktbuf.Packet, 1)
	for _, frame := range campusFrames(ring) {
		tx.Reset(tx.OrigHeadroom())
		tx.SetFrame(frame)
		if !gen.Enqueue(nil, tx, 0) {
			t.Fatal("generator Enqueue refused")
		}
		for gen.Reap(0, reap) == 0 {
			runtime.Gosched()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for dut.PendingCount() < ring {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames reached the DUT ring", dut.PendingCount(), ring)
		}
		runtime.Gosched()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d, engines, err := NewWireGraphPerCore(mustParse(t, nf.Mirror(0, 32)),
		Options{Model: click.XChange, Seed: 7}, [][]nic.Port{{dut}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ServeWire(ctx, engines, 200*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if led := d.WireResult(); led.Offered != ring || led.TxWire != ring {
		t.Fatalf("offered %d, tx %d, want %d each (drops %s)",
			led.Offered, led.TxWire, ring, led.DropsByReason.String())
	}
}

// TestWireAuditPendingFrames: a wire port's pending frame sits in a ring
// slot, not in a posted buffer, so frames still queued when a session
// stops hold no buffer. Audit must balance with 16 frames left pending
// and no step taken, on both buffer models (the X-Change spare ledger and
// the Copying mempool).
func TestWireAuditPendingFrames(t *testing.T) {
	for _, tc := range []struct {
		name  string
		model click.MetadataModel
	}{
		{"Copying", click.Copying},
		{"XChange", click.XChange},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pending = 16
			gen, dut, err := wire.Loopback(wire.Config{Name: "gen"}, wire.Config{Name: "dut"})
			if err != nil {
				t.Fatal(err)
			}
			defer gen.Close()
			defer dut.Close()
			d, err := NewWireDUT(Options{Model: tc.model, Seed: 7}, []nic.Port{dut})
			if err != nil {
				t.Fatal(err)
			}
			tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
			reap := make([]*pktbuf.Packet, 1)
			for _, frame := range campusFrames(pending) {
				tx.Reset(tx.OrigHeadroom())
				tx.SetFrame(frame)
				if !gen.Enqueue(nil, tx, 0) {
					t.Fatal("generator Enqueue refused")
				}
				for gen.Reap(0, reap) == 0 {
					runtime.Gosched()
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for dut.PendingCount() < pending {
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d frames reached the DUT ring", dut.PendingCount(), pending)
				}
				runtime.Gosched()
			}
			if err := d.Audit(); err != nil {
				t.Fatalf("audit with %d frames pending: %v", pending, err)
			}
		})
	}
}
