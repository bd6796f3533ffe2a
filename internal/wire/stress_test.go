package wire

import (
	"context"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"packetmill/internal/click"
	_ "packetmill/internal/elements"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/testbed"
)

// flakyConn fails every fourth write with a transient errno. Real
// socketpair writes almost never surface EAGAIN through net.Conn — the
// runtime's poller blocks instead — so without injection the Enqueue
// backoff path (the one that drops the port lock mid-call) would go
// unexercised.
type flakyConn struct {
	net.Conn
	n atomic.Uint64
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if c.n.Add(1)%4 == 0 {
		return 0, syscall.ENOBUFS
	}
	return c.Conn.Write(b)
}

// deadConn fails every write with a hard (non-transient) error: the
// peer is gone, so nothing is retried.
type deadConn struct{ net.Conn }

func (deadConn) Write([]byte) (int, error) { return 0, syscall.EPIPE }

// TestTXHardErrorBooksTxError: a frame lost to a hard write error is a
// loss of its own kind. It advances DropError, never the ring-refusal
// counter DropFull (a refusal the driver retries), its buffer still
// comes back through Reap, and a serving DUT's ledger books it under
// tx-error while offered == tx + drops still holds.
func TestTXHardErrorBooksTxError(t *testing.T) {
	// deadPort wires a port whose RX is fed through the returned conn and
	// whose every TX write fails hard.
	deadPort := func() (*Port, net.Conn) {
		rxNear, rxFar, err := Socketpair()
		if err != nil {
			t.Fatal(err)
		}
		txNear, txFar, err := Socketpair()
		if err != nil {
			t.Fatal(err)
		}
		p := NewPort(Config{Name: "dead0"}, rxNear, deadConn{txNear})
		t.Cleanup(func() { p.Close(); rxFar.Close(); txFar.Close() })
		return p, rxFar
	}

	p, _ := deadPort()
	b := testBuf()
	b.SetFrame(testFrame(120, 1))
	if !p.Enqueue(nil, b, 0) {
		t.Fatal("Enqueue refused with ring space")
	}
	if s := p.TXStats(); s.DropError != 1 || s.DropFull != 0 || s.Sent != 0 {
		t.Fatalf("TXStats = %+v, want one hard-error drop, no refusal, no send", s)
	}
	reap := make([]*pktbuf.Packet, 1)
	waitCond(t, "hard-error reap", func() bool { return p.Reap(0, reap) == 1 })
	if reap[0] != b {
		t.Fatal("hard-error buffer not recycled")
	}

	// Under a serving DUT every mirrored frame fails the same way.
	const nFrames = 20
	p, feed := deadPort()
	for i := 0; i < nFrames; i++ {
		if _, err := feed.Write(testFrame(120, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "frames received", func() bool { return p.PendingCount() == nFrames })
	g, err := click.Parse(nf.Mirror(0, 32))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d, engines, err := testbed.NewWireGraphPerCore(g, testbed.Options{Model: click.XChange, Seed: 3},
		[][]nic.Port{{p}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ServeWire(ctx, engines, 100*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	led := d.WireResult()
	s := p.TXStats()
	if got := led.DropsByReason.Get(stats.DropTxError); got != nFrames || s.DropError != nFrames || s.DropFull != 0 {
		t.Fatalf("ledger tx-error %d, port TX stats %+v, want %d hard-error drops", got, s, nFrames)
	}
	if led.Offered != nFrames || led.Offered != led.TxWire+led.Dropped {
		t.Fatalf("conservation: offered %d != tx %d + drops %d (%s)",
			led.Offered, led.TxWire, led.Dropped, led.DropsByReason.String())
	}
}

// TestPortConcurrentStress hammers one wire.Port from many goroutines —
// Enqueue with injected transient-errno backoff, Post/Poll, Reap, and an
// RX feed — then checks buffer
// conservation: every accepted TX buffer comes back through Reap exactly
// once, and the TX ledger accounts for every Enqueue call. Before the
// slot-reservation fix, a concurrent Enqueue could pass the capacity
// check while another slept in backoff with the lock released;
// pushInflight then overwrote the oldest in-flight record, leaking its
// buffer — this test fails on that build. Run it under -race.
func TestPortConcurrentStress(t *testing.T) {
	txNear, txFar, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	rxNear, rxFar, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{
		Name: "stress0",
		MTU:  1024,
		// Slow enough that pacing genuinely fills the TX ring (~32 µs per
		// frame), so capacity checks race with backoff sleeps — the window
		// the old overwrite bug needed.
		LinkGbps: 0.05,
		TXRing:   64,
		RXRing:   64,
	}
	p := NewPort(cfg, rxNear, &flakyConn{Conn: txNear})

	// Sink: drain the far TX end so kernel buffers never wedge writers.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := txFar.Read(buf); err != nil {
				return
			}
		}
	}()

	var stop, reapStop atomic.Bool
	var wgEnq, wgAux sync.WaitGroup
	var accepted, refused, reaped atomic.Uint64

	// Feeder: offer frames to the RX side.
	wgAux.Add(1)
	go func() {
		defer wgAux.Done()
		frame := testFrame(200, 5)
		for !stop.Load() {
			rxFar.Write(frame)
			time.Sleep(20 * time.Microsecond)
		}
	}()

	// Poster/poller: keep RX buffers posted and drain arrivals.
	wgAux.Add(1)
	go func() {
		defer wgAux.Done()
		pkts := make([]*pktbuf.Packet, 16)
		descs := make([]nic.Descriptor, 16)
		pool := make([]*pktbuf.Packet, 0, 32)
		for i := 0; i < 32; i++ {
			pool = append(pool, testBuf())
		}
		for !stop.Load() {
			for len(pool) > 0 {
				if p.Post(pool[len(pool)-1]) != nil {
					break
				}
				pool = pool[:len(pool)-1]
			}
			n := p.Poll(nil, 0, 16, pkts, descs)
			pool = append(pool, pkts[:n]...)
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()

	// Free list shared by the enqueuers and the reaper. Capacity exceeds
	// the buffer population, so sends never block.
	freeCh := make(chan *pktbuf.Packet, 128)
	for i := 0; i < 96; i++ {
		freeCh <- testBuf()
	}
	for g := 0; g < 4; g++ {
		wgEnq.Add(1)
		go func(seed byte) {
			defer wgEnq.Done()
			small := testFrame(180, seed)
			big := testFrame(cfg.MTU+100, seed) // oversize for the 1024-byte MTU
			for i := 0; !stop.Load(); i++ {
				select {
				case b := <-freeCh:
					if seed == 3 && i%8 == 0 {
						b.SetFrame(big)
					} else {
						b.SetFrame(small)
					}
					if p.Enqueue(nil, b, 0) {
						accepted.Add(1)
					} else {
						refused.Add(1)
						freeCh <- b
					}
				default:
					runtime.Gosched()
				}
			}
		}(byte(g))
	}
	wgAux.Add(1)
	go func() {
		defer wgAux.Done()
		out := make([]*pktbuf.Packet, 32)
		for !reapStop.Load() {
			n := p.Reap(0, out)
			for i := 0; i < n; i++ {
				freeCh <- out[i]
				out[i] = nil
			}
			reaped.Add(uint64(n))
			if n == 0 {
				runtime.Gosched()
			}
		}
	}()

	waitCond(t, "RX delivery", func() bool { return p.RXStats().Delivered > 0 })
	time.Sleep(100 * time.Millisecond)

	stop.Store(true)
	wgEnq.Wait()
	waitCond(t, "in-flight drain", func() bool { return p.InflightCount() == 0 })
	reapStop.Store(true)
	wgAux.Wait()

	if a, r := accepted.Load(), reaped.Load(); a != r {
		t.Fatalf("buffer conservation violated: %d accepted, %d reaped (leaked %d)", a, r, int64(a)-int64(r))
	}
	s := p.TXStats()
	if got, want := s.Sent+s.DropTransient+s.DropOversize+s.DropFull+s.DropError, accepted.Load()+refused.Load(); got != want {
		t.Fatalf("TX ledger %+v sums to %d, want %d (accepted %d + refused %d)",
			s, got, want, accepted.Load(), refused.Load())
	}
	if s.Sent == 0 || s.DropOversize == 0 {
		t.Fatalf("stress mix degenerate: %+v", s)
	}

	// Final hammer: operations racing Close must stay memory-safe. The
	// conservation checks are done, so leaks past this point don't matter.
	var wgClose sync.WaitGroup
	for g := 0; g < 3; g++ {
		wgClose.Add(1)
		go func(seed byte) {
			defer wgClose.Done()
			b := testBuf()
			frame := testFrame(120, seed)
			out := make([]*pktbuf.Packet, 8)
			pkts := make([]*pktbuf.Packet, 8)
			descs := make([]nic.Descriptor, 8)
			for i := 0; i < 200; i++ {
				b.SetFrame(frame)
				p.Enqueue(nil, b, 0)
				p.Reap(0, out)
				p.Poll(nil, 0, 8, pkts, descs)
				p.RXStats()
				p.TXStats()
				p.InflightCount()
			}
		}(byte(g))
	}
	time.Sleep(time.Millisecond)
	p.Close()
	wgClose.Wait()
}
