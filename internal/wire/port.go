// Package wire is the repository's real packet I/O subsystem: a live
// NIC backend over datagram sockets implementing the same driver-facing
// nic.Port surface as the simulated adapter (capture codecs live in the
// wire/pcapio subpackage). Everything above the port seam — the DPDK
// PMD, the metadata bindings, fault injection, telemetry — runs
// unchanged on either backend; this package is the device boundary the
// paper's X-Change argument is about.
//
// The port itself: a nic.Port whose RX and TX sides are datagram
// sockets instead of the simulated MAC. A background reader drains the
// RX socket into a fixed ring of preallocated MTU-sized slots — like a
// hardware FIFO, frames wait there until the driver polls, and overflow
// is dropped with a counter, never buffered without bound. The driver
// side (Poll/Post/Enqueue/Reap) is mutex-guarded, allocation-free in
// steady state, and charges nothing to the simulated memory hierarchy:
// on a live wire the cycle ledger measures only what the host actually
// does.
package wire

import (
	"errors"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"packetmill/internal/machine"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
)

// Config shapes one live port.
type Config struct {
	// Name labels the port in telemetry reports.
	Name string
	// Queue is the queue index reported to the driver (default 0).
	Queue int
	// LinkGbps paces transmission: each frame occupies the emulated wire
	// for (len+20)*8/LinkGbps ns of wall-clock time, which delays buffer
	// reclamation exactly as a real serializer would. 0 means 10 Gbps.
	LinkGbps float64
	// MTU is the largest frame the port accepts, RX slot size included.
	// Larger TX frames are dropped with accounting. 0 means 2048.
	MTU int
	// RXRing/TXRing bound the descriptor rings (0 means 256).
	RXRing, TXRing int
	// Redial, when set, reopens the RX socket after repeated read
	// errors: the old conn is closed and the returned one takes its
	// place — the self-healing path for a peer that restarted.
	Redial func() (net.Conn, error)
}

func (c *Config) fill() {
	if c.Name == "" {
		c.Name = "wire0"
	}
	if c.LinkGbps == 0 {
		c.LinkGbps = 10
	}
	if c.MTU == 0 {
		c.MTU = 2048
	}
	if c.RXRing == 0 {
		c.RXRing = 256
	}
	if c.TXRing == 0 {
		c.TXRing = 256
	}
}

// ring is a fixed-capacity FIFO (slot indices, posted buffers). Fixed so
// the hot path never grows a slice.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

func (r *ring[T]) push(v T) {
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop a buffer reference the ring no longer holds
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// txRec is one in-flight transmission: the buffer the driver lent the
// port and the wall-clock instant its frame has fully left the wire.
type txRec struct {
	pkt        *pktbuf.Packet
	departWall time.Time
}

// Port is a live queue pair over datagram sockets. It implements
// nic.Port, so internal/dpdk, the metadata bindings, fault injection,
// and telemetry drive it exactly as they drive the simulated adapter.
type Port struct {
	cfg    Config
	rxConn net.Conn
	txConn net.Conn

	mu sync.Mutex
	// RX: slots[i][:slotLen[i]] holds a received frame when i sits in
	// filled; free holds the rest. posted queues driver buffers.
	slots   [][]byte
	slotLen []int
	free    ring[int]
	filled  ring[int]
	posted  ring[*pktbuf.Packet]
	// bell is the poller's doorbell (SetDoorbell), kicked when filled
	// goes from empty to non-empty.
	bell chan struct{}
	// TX: a fixed ring of in-flight buffers awaiting wall-clock depart.
	// txPending counts Enqueue calls that reserved a slot but are still
	// inside the unlocked write; capacity checks use txN+txPending so a
	// concurrent Enqueue can never overwrite an in-flight record.
	inflight   []txRec
	txHead     int
	txN        int
	txPending  int
	lastDepart time.Time
	// txDeadline is the write deadline last armed on txConn; see
	// txWriteBound.
	txDeadline time.Time

	rxStats nic.RXQueueStats
	txStats nic.TXQueueStats
	reopens uint64

	closed bool
	done   chan struct{}
}

// txMaxRetries bounds the in-place retries a transient TX errno gets
// before the frame is booked under the transient-drop counter.
const txMaxRetries = 3

// txWriteBound caps how long one TX write may wait on a peer whose
// socket buffer stays full before the frame is booked as a transient
// drop, so a stalled peer never parks the serve loop for good. It sits
// far above any scheduling delay a reader on a loaded host sees, so a
// merely slow reader never costs a frame. The deadline is
// re-armed only when less than half the bound remains, which keeps the
// timer update off the per-frame path; after a write times out it stays
// expired for half a bound, so a stalled peer costs one bound per window
// rather than one per frame.
const txWriteBound = 100 * time.Millisecond

// isTransient classifies the errors a loaded-but-alive socket returns —
// would-block (EAGAIN), kernel buffer exhaustion (ENOBUFS/ENOMEM), and a
// write that outwaited txWriteBound — which are congestion rather than
// breakage. Anything else (peer gone, fd closed) is a hard error.
func isTransient(err error) bool {
	return errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.EWOULDBLOCK) ||
		errors.Is(err, syscall.ENOBUFS) ||
		errors.Is(err, syscall.ENOMEM) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}

var _ nic.Port = (*Port)(nil)

// NewPort wraps a receive and a transmit socket as a driver-facing port
// and starts the RX drain goroutine. Either conn may be nil for a
// one-directional port (capture-only, replay-only).
func NewPort(cfg Config, rxConn, txConn net.Conn) *Port {
	cfg.fill()
	p := &Port{
		cfg:      cfg,
		rxConn:   rxConn,
		txConn:   txConn,
		slots:    make([][]byte, cfg.RXRing),
		slotLen:  make([]int, cfg.RXRing),
		free:     newRing[int](cfg.RXRing),
		filled:   newRing[int](cfg.RXRing),
		posted:   newRing[*pktbuf.Packet](cfg.RXRing),
		inflight: make([]txRec, cfg.TXRing),
		done:     make(chan struct{}),
	}
	for i := range p.slots {
		p.slots[i] = make([]byte, cfg.MTU)
		p.free.push(i)
	}
	if rxConn != nil {
		go p.drainRX()
	} else {
		close(p.done)
	}
	return p
}

// drainRX moves frames from the socket into ring slots. It claims a slot
// under the lock, reads outside it (so Poll never waits on the kernel),
// and files the result. With the ring full it still reads — into a
// sacrificial slot — so the socket buffer cannot silently absorb the
// overrun; the drop is counted where a NIC would count it. A frame that
// lands in an empty ring rings the doorbell, and the reader then yields
// once: the woken poller sits in this P's run-next slot, and a reader
// that keeps finding queued datagrams would otherwise starve it until
// the burst ends.
func (p *Port) drainRX() {
	defer close(p.done)
	scratch := make([]byte, p.cfg.MTU)
	consecErrs := 0
	for {
		p.mu.Lock()
		slot := -1
		if p.free.n > 0 {
			slot = p.free.pop()
		}
		closed := p.closed
		conn := p.rxConn // snapshot: Redial may swap the field under the lock
		p.mu.Unlock()
		if closed {
			return
		}
		buf := scratch
		if slot >= 0 {
			buf = p.slots[slot]
		}
		n, err := conn.Read(buf)
		p.mu.Lock()
		kicked := false
		switch {
		case err != nil:
			if slot >= 0 {
				p.free.push(slot)
			}
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return
			}
			// Back off while the socket misbehaves (linear ramp, capped)
			// so a dead peer doesn't spin this goroutine flat out, then
			// escalate to a reopen once the errors look persistent.
			consecErrs++
			d := time.Duration(consecErrs) * 100 * time.Microsecond
			if d > 10*time.Millisecond {
				d = 10 * time.Millisecond
			}
			time.Sleep(d)
			if p.cfg.Redial != nil && consecErrs >= 3 {
				if nc, rerr := p.cfg.Redial(); rerr == nil {
					p.mu.Lock()
					if p.closed {
						p.mu.Unlock()
						nc.Close()
						return
					}
					old := p.rxConn
					p.rxConn = nc
					p.reopens++
					p.mu.Unlock()
					old.Close()
					consecErrs = 0
				}
			}
			continue
		case slot < 0:
			p.rxStats.DropFull++
		case n < nic.MinFrameSize:
			p.rxStats.DropRunt++
			p.free.push(slot)
		default:
			p.slotLen[slot] = n
			p.filled.push(slot)
			p.rxStats.Delivered++
			p.rxStats.Bytes += uint64(n)
			kicked = p.kick()
		}
		consecErrs = 0
		p.mu.Unlock()
		if kicked {
			runtime.Gosched()
		}
	}
}

// kick rings the doorbell, without blocking, when the frame just filed
// is the ring's only one; it reports whether a token went out. Callers
// hold p.mu.
func (p *Port) kick() bool {
	if p.filled.n != 1 || p.bell == nil {
		return false
	}
	select {
	case p.bell <- struct{}{}:
		return true
	default: // a token is already waiting
		return false
	}
}

// SetDoorbell implements nic.Port.
func (p *Port) SetDoorbell(bell chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bell = bell
}

// deliver files one received frame into a free RX slot, with the same
// accounting the drain goroutine performs — the entry point a Fanout
// reader uses for queue ports that share a single socket and so run no
// reader of their own. The frame is copied; the caller keeps its buffer.
// Like drainRX it rings the doorbell on an empty ring and then yields.
func (p *Port) deliver(frame []byte) {
	p.mu.Lock()
	kicked := false
	switch {
	case p.closed:
	case len(frame) < nic.MinFrameSize:
		p.rxStats.DropRunt++
	case p.free.n == 0:
		p.rxStats.DropFull++
	default:
		slot := p.free.pop()
		n := copy(p.slots[slot], frame)
		p.slotLen[slot] = n
		p.filled.push(slot)
		p.rxStats.Delivered++
		p.rxStats.Bytes += uint64(n)
		kicked = p.kick()
	}
	p.mu.Unlock()
	if kicked {
		runtime.Gosched()
	}
}

// Close shuts both sockets and stops the drain goroutine.
func (p *Port) Close() error {
	p.mu.Lock()
	p.closed = true
	rx, tx := p.rxConn, p.txConn
	p.mu.Unlock()
	var err error
	if rx != nil {
		err = rx.Close()
	}
	if tx != nil {
		if e := tx.Close(); err == nil {
			err = e
		}
	}
	<-p.done
	return err
}

// Reopens reports how many times the RX socket was redialed after
// persistent read errors.
func (p *Port) Reopens() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reopens
}

// PortName implements nic.Port.
func (p *Port) PortName() string { return p.cfg.Name }

// QueueID implements nic.Port.
func (p *Port) QueueID() int { return p.cfg.Queue }

// RXRingSize implements nic.Port.
func (p *Port) RXRingSize() int { return p.cfg.RXRing }

// TXRingSize implements nic.Port.
func (p *Port) TXRingSize() int { return p.cfg.TXRing }

// Post hands a fresh buffer to the RX ring.
func (p *Port) Post(pkt *pktbuf.Packet) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Unlike the simulated queue, pending frames hold ring *slots*, not
	// posted buffers — a buffer can always be posted against a parked
	// frame, so only the posted queue itself is bounded.
	if p.posted.n >= p.cfg.RXRing {
		return nic.ErrOverPosted
	}
	p.posted.push(pkt)
	return nil
}

// PostedCount implements nic.Port.
func (p *Port) PostedCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.posted.n
}

// PendingCount reports frames sitting in the RX ring awaiting a poll.
func (p *Port) PendingCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.filled.n
}

// NextReadyNS returns -Inf when frames are pending — a live arrival is
// never in the simulated future — and +Inf when the ring is empty, so
// the driver's empty-poll fast path works unchanged.
func (p *Port) NextReadyNS() float64 {
	p.mu.Lock()
	n := p.filled.n
	p.mu.Unlock()
	if n > 0 {
		return math.Inf(-1)
	}
	return math.Inf(1)
}

// Poll pops up to max received frames into posted buffers. Unlike the
// simulated queue there is no CQE charge: the host really did the work,
// and the cycle ledger should not double-count it.
func (p *Port) Poll(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < max && p.filled.n > 0 && p.posted.n > 0 {
		slot := p.filled.pop()
		pkt := p.posted.pop()
		frame := p.slots[slot][:p.slotLen[slot]]
		pkt.SetFrame(frame)
		pkt.ArrivalNS = nowNS
		pkts[n] = pkt
		descs[n] = nic.Descriptor{
			Len:     len(frame),
			Queue:   p.cfg.Queue,
			RSSHash: nic.HashFrame(frame),
			VlanTCI: nic.FrameVlanTCI(frame),
		}
		p.free.push(slot)
		n++
	}
	return n
}

// PollCompressed implements nic.Port; the live backend has no CQE
// format, so it is plain Poll.
func (p *Port) PollCompressed(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	return p.Poll(core, nowNS, max, pkts, descs)
}

// Enqueue writes the frame to the TX socket and parks the buffer until
// its wall-clock departure. The link-rate pacing delays only *buffer
// reclamation* — the datagram itself leaves immediately — which is the
// part of serialization the driver can observe: TX-ring backpressure.
//
// The lock is never held across the write: the in-flight slot is
// reserved under it, the socket is written unlocked, and the result is
// booked under it again. Holding it would let a full peer park this
// port's drain goroutine too — and two ports wired back to back would
// then wait on each other forever.
func (p *Port) Enqueue(core *machine.Core, pkt *pktbuf.Packet, nowNS float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.txN+p.txPending >= p.cfg.TXRing {
		p.txStats.DropFull++
		return false
	}
	now := time.Now()
	if pkt.Len() > p.cfg.MTU {
		// Oversize for the emulated link: dropped on the wire, but the
		// buffer still cycles back through Reap immediately.
		p.txStats.DropOversize++
		p.pushInflight(txRec{pkt: pkt, departWall: now})
		return true
	}
	if conn := p.txConn; conn != nil {
		// The reservation keeps a concurrent Enqueue from passing the
		// capacity check while this one is unlocked; without it
		// pushInflight could overwrite the oldest in-flight record —
		// leaking that buffer (never reaped) and corrupting txN.
		p.txPending++
		arm := now.Add(txWriteBound / 2).After(p.txDeadline)
		if arm {
			p.txDeadline = now.Add(txWriteBound)
		}
		p.mu.Unlock()
		if arm {
			// A conn that takes no deadline keeps an unbounded write;
			// the port still works, only without the stall bound.
			_ = conn.SetWriteDeadline(now.Add(txWriteBound))
		}
		err := writeFrame(conn, pkt.Bytes())
		p.mu.Lock()
		p.txPending--
		if errors.Is(err, os.ErrDeadlineExceeded) {
			p.txDeadline = time.Now().Add(txWriteBound)
		}
		if err != nil {
			// A transient errno that survived the retries, or a peer
			// that stayed full past the write bound, is congestion; a
			// hard error is the peer gone. Distinct counters so
			// dashboards can tell congestion from breakage. Either way
			// the buffer cycles back via Reap.
			if isTransient(err) {
				p.txStats.DropTransient++
			} else {
				p.txStats.DropError++
			}
			p.pushInflight(txRec{pkt: pkt, departWall: now})
			return true
		}
	}
	wire := time.Duration(float64(pkt.Len()+20) * 8 / p.cfg.LinkGbps) // ns
	start := now
	if p.lastDepart.After(start) {
		start = p.lastDepart
	}
	depart := start.Add(wire)
	p.lastDepart = depart
	p.pushInflight(txRec{pkt: pkt, departWall: depart})
	p.txStats.Sent++
	p.txStats.Bytes += uint64(pkt.Len())
	return true
}

// writeFrame sends one datagram, retrying a transient errno
// (EAGAIN/ENOBUFS) with a bounded doubling backoff. A write that hits
// the deadline is final: the peer stayed full for the whole bound.
func writeFrame(conn net.Conn, b []byte) error {
	backoff := 50 * time.Microsecond
	for attempt := 0; ; attempt++ {
		_, err := conn.Write(b)
		if err == nil || !isTransient(err) || errors.Is(err, os.ErrDeadlineExceeded) ||
			attempt >= txMaxRetries {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

func (p *Port) pushInflight(r txRec) {
	p.inflight[(p.txHead+p.txN)%len(p.inflight)] = r
	p.txN++
}

// Reap returns buffers whose frames have departed. Departure is wall
// clock — nowNS is the caller's simulated clock and does not apply to a
// live wire — so a driver spinning on Reap sees buffers come back at
// the emulated link rate.
func (p *Port) Reap(nowNS float64, out []*pktbuf.Packet) int {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for n < len(out) && p.txN > 0 && !p.inflight[p.txHead].departWall.After(now) {
		out[n] = p.inflight[p.txHead].pkt
		p.inflight[p.txHead].pkt = nil
		p.txHead = (p.txHead + 1) % len(p.inflight)
		p.txN--
		n++
	}
	return n
}

// InflightCount implements nic.Port.
func (p *Port) InflightCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.txN
}

// HeldCount implements nic.Port. A pending frame sits in a ring slot
// until Poll copies it into a posted buffer, so it holds no buffer.
func (p *Port) HeldCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.posted.n + p.txN
}

// RXStats implements nic.Port.
func (p *Port) RXStats() nic.RXQueueStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rxStats
}

// TXStats implements nic.Port.
func (p *Port) TXStats() nic.TXQueueStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.txStats
}
