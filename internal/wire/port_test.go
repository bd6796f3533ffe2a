package wire

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
)

func testBuf() *pktbuf.Packet {
	return pktbuf.NewPacket(make([]byte, 2300), 0, 128)
}

func testFrame(n int, seed byte) []byte {
	f := make([]byte, n)
	for i := range f {
		f[i] = seed + byte(i)
	}
	f[12], f[13] = 0x08, 0x00
	return f
}

// waitPending spins until the port has at least n frames pending or the
// deadline passes.
func waitPending(t *testing.T, p *Port, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.PendingCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d pending frames (have %d)", n, p.PendingCount())
		}
		runtime.Gosched()
	}
}

// waitCond spins until cond holds or the deadline passes.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestLoopbackRoundTrip(t *testing.T) {
	a, b, err := Loopback(Config{Name: "wireA"}, Config{Name: "wireB"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	for i := 0; i < 4; i++ {
		if err := b.Post(testBuf()); err != nil {
			t.Fatalf("Post: %v", err)
		}
	}
	frame := testFrame(100, 7)
	tx := testBuf()
	tx.SetFrame(frame)
	if !a.Enqueue(nil, tx, 0) {
		t.Fatal("Enqueue refused")
	}
	waitPending(t, b, 1)

	if b.NextReadyNS() > 0 {
		t.Fatal("NextReadyNS should be -Inf with a frame pending")
	}
	pkts := make([]*pktbuf.Packet, 8)
	descs := make([]nic.Descriptor, 8)
	n := b.Poll(nil, 42, 8, pkts, descs)
	if n != 1 {
		t.Fatalf("Poll = %d, want 1", n)
	}
	if !bytes.Equal(pkts[0].Bytes(), frame) {
		t.Fatal("received frame differs from transmitted")
	}
	if pkts[0].ArrivalNS != 42 {
		t.Fatalf("ArrivalNS = %v, want the poll time", pkts[0].ArrivalNS)
	}
	if descs[0].Len != len(frame) || descs[0].RSSHash != nic.HashFrame(frame) {
		t.Fatal("descriptor not derived from the frame")
	}
	if b.NextReadyNS() < 0 {
		t.Fatal("NextReadyNS should be +Inf when drained")
	}

	// The TX buffer comes back once its wall-clock serialization ends.
	reap := make([]*pktbuf.Packet, 4)
	waitCond(t, "TX reap", func() bool { return a.Reap(0, reap) == 1 })
	if reap[0] != tx {
		t.Fatal("reaped a different buffer than was enqueued")
	}
	if s := a.TXStats(); s.Sent != 1 || s.Bytes != uint64(len(frame)) {
		t.Fatalf("TXStats = %+v", s)
	}
	if s := b.RXStats(); s.Delivered != 1 || s.Bytes != uint64(len(frame)) {
		t.Fatalf("RXStats = %+v", s)
	}
}

// TestRXOverrun fills the RX ring with no posted buffers: the ring holds
// ring-size frames (a hardware FIFO) and drops the rest with a counter.
func TestRXOverrun(t *testing.T) {
	a, b, err := Loopback(Config{}, Config{RXRing: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	const sent = 10
	for i := 0; i < sent; i++ {
		tx := testBuf()
		tx.SetFrame(testFrame(80, byte(i)))
		if !a.Enqueue(nil, tx, 0) {
			t.Fatalf("Enqueue %d refused", i)
		}
		reap := make([]*pktbuf.Packet, 1)
		waitCond(t, "reap", func() bool { return a.Reap(0, reap) == 1 })
	}
	waitCond(t, "all frames accounted", func() bool {
		s := b.RXStats()
		return s.Delivered+s.DropFull == sent
	})
	s := b.RXStats()
	if s.Delivered != 4 || s.DropFull != sent-4 {
		t.Fatalf("Delivered=%d DropFull=%d, want 4 and %d", s.Delivered, s.DropFull, sent-4)
	}

	// The parked frames are still there: post buffers and poll them out.
	for i := 0; i < 4; i++ {
		if err := b.Post(testBuf()); err != nil {
			t.Fatalf("Post: %v", err)
		}
	}
	pkts := make([]*pktbuf.Packet, 8)
	descs := make([]nic.Descriptor, 8)
	if n := b.Poll(nil, 0, 8, pkts, descs); n != 4 {
		t.Fatalf("Poll = %d, want 4", n)
	}
}

func TestRuntDropped(t *testing.T) {
	a, b, err := Loopback(Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if err := b.Post(testBuf()); err != nil {
		t.Fatal(err)
	}
	// Bypass Enqueue (which would be within its rights to refuse a runt)
	// and write the short datagram straight onto the wire.
	if _, err := a.txConn.Write(make([]byte, 20)); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "runt drop", func() bool { return b.RXStats().DropRunt == 1 })
	if b.PendingCount() != 0 {
		t.Fatal("runt should not occupy the ring")
	}
}

// TestOversizeTXRecycles: a frame over the MTU is dropped on the wire but
// its buffer still comes back through Reap, so the pool cannot leak. The
// drop is booked under its own oversize counter — a configuration error,
// not ring congestion.
func TestOversizeTXRecycles(t *testing.T) {
	a, b, err := Loopback(Config{MTU: 256}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	tx := testBuf()
	tx.SetFrame(testFrame(300, 1))
	if !a.Enqueue(nil, tx, 0) {
		t.Fatal("oversize Enqueue should accept and drop")
	}
	if s := a.TXStats(); s.DropOversize != 1 || s.DropFull != 0 || s.Sent != 0 {
		t.Fatalf("TXStats = %+v, want one oversize drop and no send", s)
	}
	reap := make([]*pktbuf.Packet, 1)
	waitCond(t, "oversize reap", func() bool { return a.Reap(0, reap) == 1 })
	if reap[0] != tx {
		t.Fatal("oversize buffer not recycled")
	}
}

// TestTXRingBackpressure: with a glacial link rate the ring fills and
// Enqueue refuses, exactly like the simulated queue.
func TestTXRingBackpressure(t *testing.T) {
	a, b, err := Loopback(Config{TXRing: 2, LinkGbps: 1e-6}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	for i := 0; i < 2; i++ {
		tx := testBuf()
		tx.SetFrame(testFrame(80, byte(i)))
		if !a.Enqueue(nil, tx, 0) {
			t.Fatalf("Enqueue %d refused with ring space", i)
		}
	}
	tx := testBuf()
	tx.SetFrame(testFrame(80, 9))
	if a.Enqueue(nil, tx, 0) {
		t.Fatal("Enqueue accepted into a full ring")
	}
	if a.TXStats().DropFull != 1 {
		t.Fatal("ring-full drop not counted")
	}
	if a.InflightCount() != 2 {
		t.Fatalf("InflightCount = %d, want 2", a.InflightCount())
	}
}

// TestSteadyStateRXAllocs is the live backend's zero-allocation gate:
// once the rings are primed, a full send→drain→poll→repost→reap cycle
// must not allocate — the only allocations belong to setup and refill.
func TestSteadyStateRXAllocs(t *testing.T) {
	a, b, err := Loopback(Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	rx := testBuf()
	if err := b.Post(rx); err != nil {
		t.Fatal(err)
	}
	frame := testFrame(128, 3)
	tx := testBuf()
	tx.SetFrame(frame)
	pkts := make([]*pktbuf.Packet, 4)
	descs := make([]nic.Descriptor, 4)
	reap := make([]*pktbuf.Packet, 4)

	cycle := func() {
		if !a.Enqueue(nil, tx, 0) {
			t.Fatal("Enqueue refused")
		}
		for b.PendingCount() == 0 {
			runtime.Gosched()
		}
		if n := b.Poll(nil, 0, 4, pkts, descs); n != 1 {
			t.Fatalf("Poll = %d", n)
		}
		if err := b.Post(pkts[0]); err != nil { // refill
			t.Fatal(err)
		}
		for a.Reap(0, reap) == 0 {
			runtime.Gosched()
		}
	}
	for i := 0; i < 50; i++ { // warm up socket buffers and runtime paths
		cycle()
	}
	avg := testing.AllocsPerRun(200, cycle)
	if avg > 0 {
		t.Fatalf("steady-state cycle allocates %.2f objects/run, want 0", avg)
	}
}

// TestLoopbackFloodBothWays floods a back-to-back pair in both
// directions with shrunken socket buffers, so each side keeps finding
// its peer's socket full. A TX write made under the port lock wedged
// such a pair for good: A's Enqueue parked writing to B while holding
// A's lock, B's drain goroutine needed B's lock to file a frame, and
// B's Enqueue held that lock while parked writing to A, whose drain
// goroutine waited on A's lock. Every Enqueue must now return within
// the write bound and frames must keep flowing both ways.
func TestLoopbackFloodBothWays(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a, b, err := Loopback(Config{Name: "floodA", LinkGbps: 1000},
		Config{Name: "floodB", LinkGbps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Port{a, b} {
		for _, c := range []net.Conn{p.rxConn, p.txConn} {
			rc, err := c.(syscall.Conn).SyscallConn()
			if err != nil {
				t.Fatal(err)
			}
			rc.Control(func(fd uintptr) {
				syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF, 1024)
				syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 1024)
			})
		}
	}

	const floodFor = 500 * time.Millisecond
	var attempts [2]uint64
	flood := func(i int, p *Port) {
		free := make([]*pktbuf.Packet, 0, 64)
		for j := 0; j < cap(free); j++ {
			free = append(free, testBuf())
		}
		for j := 0; j < 32; j++ {
			if err := p.Post(testBuf()); err != nil {
				t.Error(err)
				return
			}
		}
		frame := testFrame(64, byte(i))
		pkts := make([]*pktbuf.Packet, 32)
		descs := make([]nic.Descriptor, 32)
		for end := time.Now().Add(floodFor); time.Now().Before(end); {
			free = free[:len(free)+p.Reap(0, free[len(free):cap(free)])]
			for len(free) > 0 {
				tx := free[len(free)-1]
				tx.SetFrame(frame)
				attempts[i]++
				if !p.Enqueue(nil, tx, 0) {
					break
				}
				free = free[:len(free)-1]
			}
			// Reposting what was polled keeps 32 buffers posted, under
			// the ring bound, so Post cannot refuse.
			n := p.Poll(nil, 0, len(pkts), pkts, descs)
			for _, rx := range pkts[:n] {
				p.Post(rx)
			}
		}
	}
	var wg sync.WaitGroup
	for i, p := range []*Port{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			flood(i, p)
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(floodFor + 10*time.Second):
		// The ports' locks may be held by the parked writers, so free
		// them by closing the sockets underneath rather than via Close.
		for _, p := range []*Port{a, b} {
			p.rxConn.Close()
			p.txConn.Close()
		}
		t.Fatal("flooding a loopback pair both ways wedged: an Enqueue never returned")
	}
	defer a.Close()
	defer b.Close()

	for i, pair := range [][2]*Port{{a, b}, {b, a}} {
		tx, rx := pair[0].TXStats(), pair[1].RXStats()
		if tx.Sent == 0 || rx.Delivered == 0 {
			t.Errorf("%s -> %s made no progress: tx %+v, rx %+v",
				pair[0].PortName(), pair[1].PortName(), tx, rx)
		}
		if got := tx.Sent + tx.DropFull + tx.DropTransient + tx.DropOversize; got != attempts[i] {
			t.Errorf("%s TX ledger %+v sums to %d, want the %d Enqueue calls",
				pair[0].PortName(), tx, got, attempts[i])
		}
	}
}
