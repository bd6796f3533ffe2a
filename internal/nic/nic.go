// Package nic simulates a 100-GbE network adapter: receive and transmit
// descriptor rings, DMA through the DDIO window of the shared LLC, RSS
// spreading across queues, a line-rate serialization model, and the
// per-queue packet-rate ceiling that caps single-queue throughput on real
// ConnectX-5 hardware (the "other NIC-related issues" of §4.2 that make
// X-Change flatten out above 2.2 GHz on one NIC).
//
// The NIC is passive: a driver (internal/dpdk's poll-mode driver, with or
// without X-Change bindings) posts buffers, polls completions, and enqueues
// transmissions; the testbed delivers generator frames with Deliver.
package nic

import (
	"errors"
	"fmt"
	"math"

	"packetmill/internal/cache"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
	"packetmill/internal/pktbuf"
)

// Config describes one adapter.
type Config struct {
	Name        string
	LinkGbps    float64 // line rate, e.g. 100
	MaxQueuePPS float64 // per-queue completion ceiling; 0 disables
	RXRingSize  int
	TXRingSize  int
	NumQueues   int
}

// DefaultConfig returns the ConnectX-5-like adapter used by every
// experiment: 100 Gbps, 4096-descriptor rings, 11.8-Mpps single-queue
// ceiling.
func DefaultConfig(name string) Config {
	return Config{
		Name:        name,
		LinkGbps:    100,
		MaxQueuePPS: 11.8e6,
		RXRingSize:  4096,
		TXRingSize:  4096,
		NumQueues:   1,
	}
}

// RXQueueStats are one queue's receive counters. Counters live per
// queue only, so a collapsed RSS distribution or a single starving
// queue stays visible; adapter totals are sums over the queues.
type RXQueueStats struct {
	Delivered uint64
	Bytes     uint64
	DropNoBuf uint64
	DropFull  uint64
	DropRunt  uint64
}

// TXQueueStats are one queue's transmit counters.
type TXQueueStats struct {
	Sent  uint64
	Bytes uint64
	// DropFull counts Enqueue refusals because the ring was full. The
	// driver keeps the frame and retries it, so a refusal is not a lost
	// frame; the driver books its own loss when its backlog overflows.
	DropFull uint64
	// DropError counts frames lost to a hard send error (a live wire
	// whose peer is gone). The buffer still cycles back through Reap.
	DropError uint64
	// DropTransient counts frames lost to transient send errors
	// (EAGAIN/ENOBUFS on a live wire) that stayed failed after
	// bounded-backoff retries — distinct from ring refusals.
	DropTransient uint64
	// DropOversize counts frames refused at the TX boundary for
	// exceeding the port MTU — a configuration error, not congestion.
	DropOversize uint64
}

// MinFrameSize is the smallest frame the MAC accepts (Ethernet's 64-byte
// minimum less the 4-byte FCS, which the model does not carry). Anything
// shorter — e.g. a fault-truncated runt — is discarded at the MAC, as on
// real hardware.
const MinFrameSize = 60

// ErrOverPosted reports a driver posting more RX buffers than the ring
// has descriptors. It replaces the panic that used to kill the run: the
// driver treats it as "ring full, keep the buffer".
var ErrOverPosted = errors.New("nic: RX ring over-posted")

// rxEntry is a completed receive awaiting the driver's poll.
type rxEntry struct {
	pkt     *pktbuf.Packet
	desc    Descriptor
	readyNS float64
}

// ring is a fixed-capacity FIFO backing a descriptor ring. The queues used
// to append/re-slice Go slices, which reallocated and retained garbage
// under steady load; a ring bounded by the descriptor count allocates once
// at queue construction and never again. Callers guard fullness against
// the configured ring size before pushing.
type ring[T any] struct {
	buf   []T
	head  int
	count int
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) len() int { return r.count }

func (r *ring[T]) push(v T) {
	r.buf[(r.head+r.count)%len(r.buf)] = v
	r.count++
}

// front returns the oldest entry; only valid when len() > 0.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

func (r *ring[T]) pop() {
	var zero T
	r.buf[r.head] = zero // drop the packet reference
	r.head = (r.head + 1) % len(r.buf)
	r.count--
}

// Descriptor carries the wire metadata the NIC extracted for a received
// frame — the CQE contents the PMD converts into application metadata.
type Descriptor struct {
	Len     int
	VlanTCI uint16
	RSSHash uint32
	PktType uint32
	Queue   int
}

// Port is one RX/TX queue pair as a poll-mode driver sees it: the seam
// between an adapter and internal/dpdk. The simulated NIC exposes its
// queue pairs through NIC.Port; internal/wire implements the same surface
// over live datagram sockets, so the PMD, the metadata bindings, fault
// injection, and telemetry run unchanged on either backend.
type Port interface {
	// PortName names the adapter for reports; QueueID is the queue index.
	PortName() string
	QueueID() int
	// RXRingSize/TXRingSize bound the descriptor rings the driver fills.
	RXRingSize() int
	TXRingSize() int

	// Post hands a fresh buffer to the RX ring (refill); ErrOverPosted
	// when the ring cannot take more.
	Post(p *pktbuf.Packet) error
	// PostedCount reports buffers awaiting frames; PendingCount reports
	// completed receptions awaiting the driver's poll.
	PostedCount() int
	PendingCount() int
	// NextReadyNS is the readiness time of the oldest pending completion
	// (+Inf when idle; a live backend returns -Inf when frames are
	// pending, since real arrivals are never in the simulated future).
	NextReadyNS() float64
	// Poll pops up to max completed receptions ready by nowNS.
	Poll(core *machine.Core, nowNS float64, max int, pkts []*pktbuf.Packet, descs []Descriptor) int
	// PollCompressed is Poll through the compressed-CQE (vectorized) path.
	PollCompressed(core *machine.Core, nowNS float64, max int, pkts []*pktbuf.Packet, descs []Descriptor) int

	// Enqueue queues a frame for transmission; false when the ring is full.
	Enqueue(core *machine.Core, p *pktbuf.Packet, nowNS float64) bool
	// Reap returns buffers whose frames have left the wire by nowNS.
	Reap(nowNS float64, out []*pktbuf.Packet) int
	// InflightCount reports frames queued but not yet departed.
	InflightCount() int
	// HeldCount reports the driver buffers the queue pair holds: posted
	// RX buffers, buffers carrying receptions not yet polled (if the
	// backend lands frames in buffers), and TX frames in flight. A
	// buffer audit balances against it.
	HeldCount() int

	// RXStats/TXStats snapshot the queue counters for telemetry.
	RXStats() RXQueueStats
	TXStats() TXQueueStats

	// SetDoorbell registers bell, which the backend signals without
	// blocking whenever its RX ring goes from empty to non-empty, so an
	// idle poller can sleep on it instead of spinning. Several ports may
	// share one bell.
	SetDoorbell(bell chan struct{})
}

// QueuePair adapts one (RXQueue, TXQueue) pair of the simulated adapter
// to the Port interface.
type QueuePair struct {
	n  *NIC
	rx *RXQueue
	tx *TXQueue
}

var _ Port = (*QueuePair)(nil)

// Port returns queue q of the adapter as a driver-facing Port.
func (n *NIC) Port(q int) *QueuePair {
	return &QueuePair{n: n, rx: n.rx[q], tx: n.tx[q]}
}

// PortName implements Port.
func (qp *QueuePair) PortName() string { return qp.n.Cfg.Name }

// QueueID implements Port.
func (qp *QueuePair) QueueID() int { return qp.rx.id }

// RXRingSize implements Port.
func (qp *QueuePair) RXRingSize() int { return qp.n.Cfg.RXRingSize }

// TXRingSize implements Port.
func (qp *QueuePair) TXRingSize() int { return qp.n.Cfg.TXRingSize }

// Post implements Port.
func (qp *QueuePair) Post(p *pktbuf.Packet) error { return qp.rx.Post(p) }

// PostedCount implements Port.
func (qp *QueuePair) PostedCount() int { return qp.rx.PostedCount() }

// PendingCount implements Port.
func (qp *QueuePair) PendingCount() int { return qp.rx.PendingCount() }

// NextReadyNS implements Port.
func (qp *QueuePair) NextReadyNS() float64 { return qp.rx.NextReadyNS() }

// Poll implements Port.
func (qp *QueuePair) Poll(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []Descriptor) int {
	return qp.rx.Poll(core, nowNS, max, pkts, descs)
}

// PollCompressed implements Port.
func (qp *QueuePair) PollCompressed(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []Descriptor) int {
	return qp.rx.PollCompressed(core, nowNS, max, pkts, descs)
}

// Enqueue implements Port.
func (qp *QueuePair) Enqueue(core *machine.Core, p *pktbuf.Packet, nowNS float64) bool {
	return qp.tx.Enqueue(core, p, nowNS)
}

// Reap implements Port.
func (qp *QueuePair) Reap(nowNS float64, out []*pktbuf.Packet) int {
	return qp.tx.Reap(nowNS, out)
}

// InflightCount implements Port.
func (qp *QueuePair) InflightCount() int { return qp.tx.InflightCount() }

// HeldCount implements Port: a completion holds the posted buffer the
// adapter DMA'd its frame into.
func (qp *QueuePair) HeldCount() int {
	return qp.rx.PostedCount() + qp.rx.PendingCount() + qp.tx.InflightCount()
}

// RXStats implements Port.
func (qp *QueuePair) RXStats() RXQueueStats { return qp.rx.Stats }

// TXStats implements Port.
func (qp *QueuePair) TXStats() TXQueueStats { return qp.tx.Stats }

// SetDoorbell implements Port as a no-op: simulated arrivals sit on the
// simulated calendar, where no poller ever waits for a wake-up.
func (qp *QueuePair) SetDoorbell(chan struct{}) {}

// RXQueue is one receive queue: posted buffers plus completed entries.
type RXQueue struct {
	nic        *NIC
	id         int
	posted     ring[*pktbuf.Packet]
	completed  ring[rxEntry]
	cqBase     memsim.Addr
	cqHead     uint64 // absolute index of next completion the driver reads
	lastCompNS float64
	// Stats are this queue's own counters.
	Stats RXQueueStats
}

// TXQueue is one transmit queue. Transmission uses two pipelined
// resources: the wire serializer (one frame-time each) and the descriptor
// engine (one MaxQueuePPS-gap each); a frame departs when both are done
// with it. Modelling them separately matters for mixed-size traffic —
// taking max(wire, gap) per frame would undercount the pipelining and cap
// mixed traffic below the true queue rate.
type TXQueue struct {
	nic      *NIC
	id       int
	inflight ring[txEntry]
	sqBase   memsim.Addr
	sqTail   uint64
	// wireDoneNS / descDoneNS are the two resources' clocks.
	wireDoneNS float64
	descDoneNS float64
	// Stats are this queue's own counters.
	Stats TXQueueStats
}

type txEntry struct {
	pkt      *pktbuf.Packet
	departNS float64
}

// NIC is one simulated adapter.
type NIC struct {
	Cfg Config
	sys *cache.System
	rx  []*RXQueue
	tx  []*TXQueue
	// OnDepart, when set, observes every transmitted packet with its
	// wire departure time — the testbed's latency probe.
	OnDepart func(p *pktbuf.Packet, departNS float64)

	// Fault-injection hooks, nil in normal runs (a nil check is the only
	// cost the fault layer adds to a clean datapath).
	//
	// FaultRxStall models a descriptor-ring stall: completions for queue
	// q at time ns become ready no earlier than the returned absolute
	// time (0 = no stall).
	FaultRxStall func(q int, ns float64) float64
	// FaultTxSlow models a slow receiver starving TX: the returned
	// factor (≥1) multiplies the wire-serialization time at ns.
	FaultTxSlow func(ns float64) float64
}

// New builds an adapter, carving descriptor rings out of the hugepage
// arena so CQE/SQE accesses land at stable simulated addresses.
func New(cfg Config, sys *cache.System, hugepages *memsim.Arena) *NIC {
	if cfg.NumQueues <= 0 {
		cfg.NumQueues = 1
	}
	if cfg.RXRingSize <= 0 || cfg.TXRingSize <= 0 {
		panic("nic: ring sizes must be positive")
	}
	n := &NIC{Cfg: cfg, sys: sys}
	for q := 0; q < cfg.NumQueues; q++ {
		n.rx = append(n.rx, &RXQueue{
			nic:        n,
			id:         q,
			posted:     newRing[*pktbuf.Packet](cfg.RXRingSize),
			completed:  newRing[rxEntry](cfg.RXRingSize),
			cqBase:     hugepages.Alloc(uint64(cfg.RXRingSize)*cqeSize, memsim.PageSize),
			lastCompNS: math.Inf(-1),
		})
		n.tx = append(n.tx, &TXQueue{
			nic:        n,
			id:         q,
			inflight:   newRing[txEntry](cfg.TXRingSize),
			sqBase:     hugepages.Alloc(uint64(cfg.TXRingSize)*sqeSize, memsim.PageSize),
			wireDoneNS: math.Inf(-1),
			descDoneNS: math.Inf(-1),
		})
	}
	return n
}

// Descriptor entry sizes (bytes) — an MLX5 CQE is 64 B, an SQE segment 64 B.
const (
	cqeSize = 64
	sqeSize = 64
)

// RX returns receive queue q.
func (n *NIC) RX(q int) *RXQueue { return n.rx[q] }

// TX returns transmit queue q.
func (n *NIC) TX(q int) *TXQueue { return n.tx[q] }

// RSSQueue picks the receive queue for a frame among the adapter's
// queues (see Queue).
func (n *NIC) RSSQueue(frame []byte) int { return Queue(frame, n.Cfg.NumQueues) }

// Queue maps a frame to one of n receive queues: the RSS flow hash over
// the IPv4 addresses and L4 ports (symmetric simple hash; distribution,
// not cryptography, is what matters) modulo n. It is the one flow-to-
// queue map: the simulated adapter and the wire fanout both call it, so
// a flow lands on the same core, and in the same core's NAT and
// conntrack state, on either backend and at any core count.
func Queue(frame []byte, n int) int {
	if n <= 1 {
		return 0
	}
	return int(rssHash(frame) % uint32(n))
}

// HashFrame exposes the adapter's RSS flow hash to other backends (the
// wire NIC computes the same hash so RSS-keyed engines behave identically
// on real frames).
func HashFrame(frame []byte) uint32 { return rssHash(frame) }

// FrameVlanTCI extracts the outer VLAN TCI the adapter strips into the
// descriptor, or 0 for untagged (or too-short) frames. Both shim TPIDs
// are accepted — 802.1Q (0x8100) and 802.1ad/QinQ (0x88a8) — matching
// the shim walk rssHash performs, so a QinQ frame's descriptor carries
// its service tag instead of a bogus zero.
func FrameVlanTCI(frame []byte) uint16 {
	if len(frame) < netpkt.EtherHdrLen+2 {
		return 0
	}
	et := uint16(frame[12])<<8 | uint16(frame[13])
	if et != netpkt.EtherTypeVLAN && et != netpkt.EtherTypeQinQ {
		return 0
	}
	return uint16(frame[14])<<8 | uint16(frame[15])
}

func rssHash(frame []byte) uint32 {
	// Walk past up to two 802.1Q/802.1ad shims to find the real
	// EtherType, the way hardware RSS parses tagged frames. The old code
	// looked for IPv4 at the untagged offset only, so every VLAN-tagged
	// frame hashed to 0 and multi-queue runs collapsed onto queue 0.
	etOff := netpkt.EtherHdrLen - 2 // EtherType position
	for tags := 0; tags < 2 && len(frame) >= etOff+2; tags++ {
		et := uint16(frame[etOff])<<8 | uint16(frame[etOff+1])
		if et != netpkt.EtherTypeVLAN && et != netpkt.EtherTypeQinQ {
			break
		}
		etOff += netpkt.VLANTagLen
	}
	if len(frame) >= etOff+2 &&
		frame[etOff] == 0x08 && frame[etOff+1] == 0x00 &&
		len(frame) >= etOff+2+netpkt.IPv4HdrLen {
		ip := frame[etOff+2:]
		var h uint32 = 2166136261
		mix := func(b byte) { h = (h ^ uint32(b)) * 16777619 }
		for _, b := range ip[12:20] { // src+dst IP
			mix(b)
		}
		ihl := int(ip[0]&0x0f) * 4
		if len(ip) >= ihl+4 && (ip[9] == netpkt.ProtoTCP || ip[9] == netpkt.ProtoUDP) {
			for _, b := range ip[ihl : ihl+4] { // ports
				mix(b)
			}
		}
		return h
	}
	return fallbackHash(frame)
}

// fallbackHash spreads non-IPv4 traffic (ARP, unknown EtherTypes, runtish
// frames) by hashing the MAC addresses, the EtherType words, and the
// first payload bytes — enough entropy that distinct L2 flows land on
// distinct queues instead of the constant-0 hash that used to pin every
// such frame (and all its cache pressure) to queue 0.
func fallbackHash(frame []byte) uint32 {
	n := len(frame)
	if n > 34 {
		n = 34 // MACs + type + ARP sender/target fields
	}
	var h uint32 = 0x9dc5b7a1
	for _, b := range frame[:n] {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// Deliver presents a frame on the wire at time ns. The frame is DMA'd into
// the next posted buffer of queue q (or dropped, matching hardware drop
// semantics). Returns true if the frame entered the ring.
func (n *NIC) Deliver(q int, frame []byte, ns float64) bool {
	rxq := n.rx[q]
	if len(frame) < MinFrameSize {
		// The MAC discards runts (e.g. fault-truncated frames) before
		// they consume a descriptor.
		rxq.Stats.DropRunt++
		return false
	}
	if rxq.completed.len() >= n.Cfg.RXRingSize {
		rxq.Stats.DropFull++
		return false
	}
	if rxq.posted.len() == 0 {
		rxq.Stats.DropNoBuf++
		return false
	}
	pkt := *rxq.posted.front()
	rxq.posted.pop()

	pkt.SetFrame(frame)
	pkt.ArrivalNS = ns

	// DMA: payload into the buffer, CQE write-back into the ring.
	n.sys.DMAWrite(pkt.DataAddr(), uint64(len(frame)))
	cqe := rxq.cqBase + memsim.Addr((rxq.cqHead+uint64(rxq.completed.len()))%uint64(n.Cfg.RXRingSize)*cqeSize)
	n.sys.DMAWrite(cqe, cqeSize)

	// Completion pacing: the queue cannot complete faster than its PPS
	// ceiling.
	ready := ns
	if n.Cfg.MaxQueuePPS > 0 {
		minGap := 1e9 / n.Cfg.MaxQueuePPS
		if rxq.lastCompNS+minGap > ready {
			ready = rxq.lastCompNS + minGap
		}
	}
	if n.FaultRxStall != nil {
		// Injected descriptor-ring stall: the completion write-back is
		// deferred to the end of the stall window.
		if until := n.FaultRxStall(q, ns); until > ready {
			ready = until
		}
	}
	rxq.lastCompNS = ready

	// FrameVlanTCI needs 16 bytes, not 14: the old guard was only masked
	// by the runt check above, and a direct short delivery would have
	// read past the frame.
	desc := Descriptor{Len: len(frame), Queue: q, RSSHash: rssHash(frame),
		VlanTCI: FrameVlanTCI(frame)}
	rxq.completed.push(rxEntry{pkt: pkt, desc: desc, readyNS: ready})
	rxq.Stats.Delivered++
	rxq.Stats.Bytes += uint64(len(frame))
	return true
}

// Post hands a fresh buffer to the queue for future DMA. The driver calls
// this during ring refill. Posting beyond the ring's descriptor count is
// refused with ErrOverPosted — the caller keeps the buffer and backs off,
// instead of the old panic that killed the run.
func (q *RXQueue) Post(p *pktbuf.Packet) error {
	if q.posted.len()+q.completed.len() >= q.nic.Cfg.RXRingSize {
		return ErrOverPosted
	}
	q.posted.push(p)
	return nil
}

// PostedCount reports buffers currently posted.
func (q *RXQueue) PostedCount() int { return q.posted.len() }

// PendingCount reports completions waiting for the driver.
func (q *RXQueue) PendingCount() int { return q.completed.len() }

// Poll pops up to max completed receptions that are ready by nowNS,
// charging the CQE reads to core. It returns the packets and their wire
// descriptors.
func (q *RXQueue) Poll(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []Descriptor) int {
	n := 0
	for n < max && q.completed.len() > 0 {
		e := *q.completed.front()
		if e.readyNS > nowNS {
			break
		}
		// Driver reads the CQE.
		cqe := q.cqBase + memsim.Addr(q.cqHead%uint64(q.nic.Cfg.RXRingSize)*cqeSize)
		core.Load(cqe, cqeSize)
		q.cqHead++
		q.completed.pop()
		pkts[n] = e.pkt
		descs[n] = e.desc
		n++
	}
	return n
}

// PollCompressed is Poll for a vectorized driver using CQE compression:
// one 64-B read covers a session of up to four completions (mlx5's
// compressed CQE format), so descriptor traffic drops ~4x.
func (q *RXQueue) PollCompressed(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []Descriptor) int {
	n := 0
	for n < max && q.completed.len() > 0 {
		e := *q.completed.front()
		if e.readyNS > nowNS {
			break
		}
		if q.cqHead%4 == 0 || n == 0 {
			cqe := q.cqBase + memsim.Addr(q.cqHead%uint64(q.nic.Cfg.RXRingSize)*cqeSize)
			core.Load(cqe, cqeSize)
		}
		q.cqHead++
		q.completed.pop()
		pkts[n] = e.pkt
		descs[n] = e.desc
		n++
	}
	return n
}

// NextReadyNS returns the readiness time of the oldest pending completion,
// or +Inf when the queue is idle — the testbed uses it to fast-forward an
// idle core.
func (q *RXQueue) NextReadyNS() float64 {
	if q.completed.len() == 0 {
		return inf
	}
	return q.completed.front().readyNS
}

var inf = math.Inf(1)

// Enqueue queues a frame for transmission at time nowNS, charging the SQE
// write to core. It returns false when the TX ring is full.
func (q *TXQueue) Enqueue(core *machine.Core, p *pktbuf.Packet, nowNS float64) bool {
	if q.inflight.len() >= q.nic.Cfg.TXRingSize {
		q.Stats.DropFull++
		return false
	}
	sqe := q.sqBase + memsim.Addr(q.sqTail%uint64(q.nic.Cfg.TXRingSize)*sqeSize)
	core.Store(sqe, sqeSize)
	q.sqTail++

	// The adapter DMA-reads the frame.
	q.nic.sys.DMARead(p.DataAddr(), uint64(p.Len()))

	// Serialization: the wire takes one frame-time, the descriptor
	// engine one PPS-gap; the two overlap across frames.
	wire := float64(p.Len()+20) * 8 / q.nic.Cfg.LinkGbps // +20B preamble/IFG/FCS overhead
	if q.nic.FaultTxSlow != nil {
		// Injected slow receiver: the link partner's pause frames
		// stretch every frame's effective serialization time.
		if f := q.nic.FaultTxSlow(nowNS); f > 1 {
			wire *= f
		}
	}
	start := nowNS
	if q.wireDoneNS > start {
		start = q.wireDoneNS
	}
	q.wireDoneNS = start + wire
	depart := q.wireDoneNS
	if q.nic.Cfg.MaxQueuePPS > 0 {
		gap := 1e9 / q.nic.Cfg.MaxQueuePPS
		d := nowNS
		if q.descDoneNS > d {
			d = q.descDoneNS
		}
		q.descDoneNS = d + gap
		if q.descDoneNS > depart {
			depart = q.descDoneNS
		}
	}

	q.inflight.push(txEntry{pkt: p, departNS: depart})
	q.Stats.Sent++
	q.Stats.Bytes += uint64(p.Len())
	if q.nic.OnDepart != nil {
		q.nic.OnDepart(p, depart)
	}
	return true
}

// Reap returns buffers whose frames have fully left the wire by nowNS so
// the driver can recycle them.
func (q *TXQueue) Reap(nowNS float64, out []*pktbuf.Packet) int {
	n := 0
	for n < len(out) && q.inflight.len() > 0 && q.inflight.front().departNS <= nowNS {
		out[n] = q.inflight.front().pkt
		q.inflight.pop()
		n++
	}
	return n
}

// InflightCount reports frames queued but not yet departed.
func (q *TXQueue) InflightCount() int { return q.inflight.len() }

// String summarizes the adapter state for debugging, summed over its
// queues.
func (n *NIC) String() string {
	var rx RXQueueStats
	var tx TXQueueStats
	for q := range n.rx {
		r, t := n.rx[q].Stats, n.tx[q].Stats
		rx.Delivered += r.Delivered
		rx.DropNoBuf += r.DropNoBuf
		rx.DropFull += r.DropFull
		rx.DropRunt += r.DropRunt
		tx.Sent += t.Sent
		tx.DropFull += t.DropFull
	}
	return fmt.Sprintf("%s: rx=%d dropNoBuf=%d dropFull=%d dropRunt=%d tx=%d txDrop=%d",
		n.Cfg.Name, rx.Delivered, rx.DropNoBuf, rx.DropFull, rx.DropRunt, tx.Sent, tx.DropFull)
}
