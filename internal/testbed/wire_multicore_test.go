package testbed

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/wire"
)

// buildWireMirrorRig assembles an N-core wire DUT running the EtherMirror
// forwarder, each core on its own loopback segment: gens[c] is the
// generator-side port whose TX feeds core c and whose RX captures core
// c's output.
func buildWireMirrorRig(t testing.TB, cores int, o Options) (*DUT, []*clickEngine, []*wire.Port) {
	t.Helper()
	gens := make([]*wire.Port, cores)
	devsPerCore := make([][]nic.Port, cores)
	for c := 0; c < cores; c++ {
		gen, dut, err := wire.Loopback(
			wire.Config{Name: fmt.Sprintf("gen%d", c), RXRing: 512, TXRing: 512},
			wire.Config{Name: fmt.Sprintf("wire%d", c), Queue: c, RXRing: 512, TXRing: 512})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gen.Close(); dut.Close() })
		gens[c] = gen
		devsPerCore[c] = []nic.Port{dut}
	}
	d, err := NewWireDUTPerCore(o, devsPerCore)
	if err != nil {
		t.Fatal(err)
	}
	g, err := click.Parse(nf.Mirror(0, 32))
	if err != nil {
		t.Fatal(err)
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		t.Fatal(err)
	}
	engs := make([]*clickEngine, cores)
	for i, rt := range routers {
		engs[i] = &clickEngine{rt: rt}
	}
	return d, engs, gens
}

// TestWireMulticoreConservation runs two concurrent run-to-completion
// cores over live sockets and checks the conservation invariant the way
// the multicore architecture demands it: offered == tx + drops on every
// core individually, and again for the sums — no frame may migrate
// between the per-core ledgers. The per-core span trackers must also
// attribute (almost) every busy cycle, per core and aggregated.
func TestWireMulticoreConservation(t *testing.T) {
	const cores, nFrames = 2, 300
	d, engs, gens := buildWireMirrorRig(t, cores, Options{
		Model: click.XChange, Seed: 7, Telemetry: true,
	})
	engines := make([]Engine, len(engs))
	for i, e := range engs {
		engines[i] = e
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		_, err := d.ServeWire(ctx, engines, 300*time.Millisecond, 0)
		serveDone <- err
	}()

	// Distinct workloads per core, so a cross-core mixup would show up as
	// a count mismatch.
	frames := campusFrames(cores * nFrames)
	if len(frames) < cores*nFrames {
		t.Fatalf("campus mix produced only %d frames", len(frames))
	}
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		for i := 0; i < nFrames+32; i++ {
			if err := gens[c].Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
			reap := make([]*pktbuf.Packet, 1)
			for _, f := range frames[c*nFrames : (c+1)*nFrames] {
				tx.Reset(tx.OrigHeadroom())
				tx.SetFrame(f)
				if !gens[c].Enqueue(nil, tx, 0) {
					t.Errorf("core %d generator Enqueue refused", c)
					return
				}
				for gens[c].Reap(0, reap) == 0 {
					runtime.Gosched()
				}
			}
		}(c)
	}
	wg.Wait()

	// Collect each core's output on its own segment.
	got := make([]uint64, cores)
	pkts := make([]*pktbuf.Packet, 32)
	descs := make([]nic.Descriptor, 32)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		moved := false
		var total uint64
		for c := 0; c < cores; c++ {
			n := gens[c].Poll(nil, 0, len(pkts), pkts, descs)
			got[c] += uint64(n)
			total += got[c]
			if n > 0 {
				moved = true
			}
		}
		if total >= cores*nFrames {
			break
		}
		if !moved {
			runtime.Gosched()
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("wire serve: %v", err)
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}

	var sumOffered, sumAccounted, sumTx uint64
	for c := 0; c < cores; c++ {
		port := d.PortsFor[c][0]
		rxs, txs := port.Dev.RXStats(), port.Dev.TXStats()
		offered := rxs.Delivered + rxs.DropFull + rxs.DropNoBuf + rxs.DropRunt
		if offered != nFrames {
			t.Fatalf("core %d: %d frames reached the DUT NIC, offered %d", c, offered, nFrames)
		}
		if backlog := engs[c].TxBacklog(); backlog != 0 {
			t.Fatalf("core %d: %d packets still queued behind the TX ring after drain", c, backlog)
		}
		// TX ring-full refusals are retried from the PMD backlog (drained
		// above), so they are not lost frames and stay out of the ledger.
		drops := rxs.DropFull + rxs.DropNoBuf + rxs.DropRunt +
			port.Drops.Total() + engs[c].DropStats().Total()
		accounted := txs.Sent + txs.DropTransient + txs.DropOversize + drops
		if accounted != offered {
			t.Fatalf("core %d conservation: offered %d != tx %d + drops %d (tx stats %+v)",
				c, offered, txs.Sent, accounted-txs.Sent, txs)
		}
		if got[c] != txs.Sent {
			t.Fatalf("core %d: captured %d frames, NIC sent %d", c, got[c], txs.Sent)
		}
		sumOffered += offered
		sumAccounted += accounted
		sumTx += txs.Sent
	}
	if sumOffered != cores*nFrames || sumAccounted != sumOffered {
		t.Fatalf("aggregate conservation: offered %d, accounted %d, want %d both",
			sumOffered, sumAccounted, cores*nFrames)
	}
	if sumTx != cores*nFrames {
		t.Fatalf("aggregate tx %d, want %d (mirror forwards everything)", sumTx, cores*nFrames)
	}

	// Attribution self-check, per core and summed across trackers.
	rep := d.buildReport(&Result{}, nil)
	if rep.Attribution.CoreBusyCycles == 0 {
		t.Fatal("no busy cycles recorded")
	}
	if rep.Attribution.Coverage < 0.95 {
		t.Errorf("aggregate attribution coverage %.4f (attributed %.0f of %.0f cycles), want >= 0.95",
			rep.Attribution.Coverage, rep.Attribution.AttributedCycles, rep.Attribution.CoreBusyCycles)
	}
	for _, cr := range rep.Cores {
		if cr.BusyCycles > 0 && cr.Coverage < 0.95 {
			t.Errorf("core %d attribution coverage %.4f, want >= 0.95", cr.Core, cr.Coverage)
		}
	}
}

// TestWireMulticoreZeroAllocs is the zero-allocation gate for the
// multicore wire datapath: with two per-core pipelines warm, pumping one
// frame through each core — generator enqueue, socket round trip, PMD
// poll, mirror graph, TX, capture, reap — must not allocate. The cores
// are stepped from one goroutine (AllocsPerRun measures process-global
// mallocs), which exercises the same per-core state the concurrent loop
// uses.
func TestWireMulticoreZeroAllocs(t *testing.T) {
	const cores = 2
	d, engs, gens := buildWireMirrorRig(t, cores, Options{Model: click.XChange, Seed: 7})
	frames := campusFrames(256)
	txs := make([]*pktbuf.Packet, cores)
	for c := 0; c < cores; c++ {
		txs[c] = pktbuf.NewPacket(make([]byte, 2300), 0, 128)
		for i := 0; i < 8; i++ {
			if err := gens[c].Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pkts := make([]*pktbuf.Packet, 8)
	descs := make([]nic.Descriptor, 8)
	reap := make([]*pktbuf.Packet, 4)
	next := 0
	cycle := func() {
		for c := 0; c < cores; c++ {
			tx := txs[c]
			tx.Reset(tx.OrigHeadroom())
			tx.SetFrame(frames[(next+c)%len(frames)])
			if !gens[c].Enqueue(nil, tx, 0) {
				t.Fatal("generator Enqueue refused")
			}
			for d.PortsFor[c][0].Dev.PendingCount() == 0 {
				runtime.Gosched()
			}
			for engs[c].Step(d.Cores[c], 0) > 0 {
			}
			for gens[c].PendingCount() == 0 {
				runtime.Gosched()
			}
			n := gens[c].Poll(nil, 0, len(pkts), pkts, descs)
			for i := 0; i < n; i++ {
				if err := gens[c].Post(pkts[i]); err != nil {
					t.Fatal(err)
				}
			}
			for gens[c].Reap(0, reap) == 0 {
				runtime.Gosched()
			}
		}
		next++
	}
	// Socket wakeups dominate wall time on a single-P runtime, so the
	// round counts stay modest; the allocation signal does not need more.
	for i := 0; i < 64; i++ { // warm: pools populate, rings fill
		cycle()
	}
	avg := testing.AllocsPerRun(50, cycle)
	if avg != 0 {
		t.Errorf("multicore steady-state forwarding allocates %.2f times per round, want 0", avg)
	}
}
