// Package dpdk models the kernel-bypass I/O layer the paper's frameworks
// sit on: hugepage-backed packet mempools with rte_mbuf-style descriptors,
// and a poll-mode driver (PMD) that moves packets between the simulated
// NIC's rings and the application.
//
// The PMD never assigns wire metadata directly; every touch point goes
// through an xchg.Binding (the paper's conversion functions), so the same
// driver code serves stock DPDK (rte_mbuf), Overlaying (framework struct
// cast over the mbuf), and X-Change (application descriptors + buffer
// exchange) — selected by "linking" a different binding, exactly the
// workflow of §3.1.
package dpdk

import (
	"errors"
	"fmt"

	"packetmill/internal/layout"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/nic"
	"packetmill/internal/overload"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/trace"
	"packetmill/internal/xchg"
)

// Typed datapath errors. They replace the runtime panics this layer used
// to raise under overload or misuse: a fault-injected or undersized run
// now degrades with accounting and a detectable error instead of killing
// the experiment.
var (
	// ErrDoubleFree reports a buffer returned to a mempool it is not
	// currently allocated from (freed twice, or foreign).
	ErrDoubleFree = errors.New("dpdk: mempool double free")
	// ErrPoolExhausted reports an RX burst that had to drop packets
	// because the descriptor pool (or mempool) had nothing free.
	ErrPoolExhausted = errors.New("dpdk: descriptor pool exhausted on RX path")
)

// Buffer geometry defaults, matching DPDK's RTE_PKTMBUF_HEADROOM and the
// common 2-KiB dataroom.
const (
	DefaultHeadroom = 128
	DefaultDataRoom = 2048
	// MbufStructSize is the rte_mbuf region preceding the headroom.
	MbufStructSize = 128
)

// BufSpec describes the buffers a mempool carves.
type BufSpec struct {
	// MetaLayout is the descriptor layout placed at the buffer head.
	// With SeparateMbuf the layout must be the rte_mbuf layout and the
	// descriptor is attached as Packet.Mbuf; otherwise it is attached as
	// Packet.Meta (the Overlaying cast).
	MetaLayout   *layout.Layout
	SeparateMbuf bool
	Headroom     int
	DataRoom     int
	// Prof, when non-nil, profiles descriptor accesses (reorder pass input).
	Prof *layout.OrderProfile
}

// DefaultBufSpec returns the stock-DPDK buffer shape (separate rte_mbuf).
func DefaultBufSpec() BufSpec {
	return BufSpec{
		MetaLayout:   layout.RteMbuf(),
		SeparateMbuf: true,
		Headroom:     DefaultHeadroom,
		DataRoom:     DefaultDataRoom,
	}
}

// Mempool is a fixed-size packet-buffer pool in hugepage memory with a
// LIFO free list (DPDK's per-lcore mempool cache behaviour: the most
// recently freed object is handed out next).
type Mempool struct {
	name     string
	spec     BufSpec
	free     []*pktbuf.Packet
	capacity int
	// out tracks which buffers are currently allocated. It is the
	// ground truth the double-free detector and the leak audit read:
	// a Put of a buffer not in this set is ErrDoubleFree, and after a
	// drained run len(out) must reconcile with the rings' holdings.
	out map[*pktbuf.Packet]struct{}
	// ringBase is the simulated address of the free-list array; every
	// get/put touches one 8-byte slot, like the mempool cache does.
	ringBase memsim.Addr
	// Cost knobs: instructions per get/put, covering DPDK's generic
	// mempool bookkeeping ("supporting many unnecessary features").
	opInstr float64

	// FaultDeplete, when set, makes Get behave as exhausted while it
	// returns true for the core's current time — the fault engine's
	// mempool-depletion hook. Nil in normal runs.
	FaultDeplete func(nowNS float64) bool

	Gets, Puts, Fails uint64
	// DoubleFrees counts Put calls rejected with ErrDoubleFree.
	DoubleFrees uint64
}

// MempoolOpInstr is the instruction cost of one mempool get or put
// (DPDK's generic mempool maintains rings, caches, and statistics —
// the "many unnecessary features" of §3.1).
const MempoolOpInstr = 40

// NewMempool carves n buffers out of the hugepage arena. An arena too
// small for the requested pool returns a typed *memsim.ExhaustedError —
// pool sizing is run configuration, so it must not crash the process.
func NewMempool(name string, n int, arena *memsim.Arena, spec BufSpec) (*Mempool, error) {
	if spec.MetaLayout == nil {
		return nil, fmt.Errorf("dpdk: mempool %q needs a metadata layout", name)
	}
	ringBase, err := arena.TryAlloc(uint64(n)*8, memsim.CacheLineSize)
	if err != nil {
		return nil, fmt.Errorf("dpdk: mempool %q free list: %w", name, err)
	}
	mp := &Mempool{
		name:     name,
		spec:     spec,
		capacity: n,
		out:      make(map[*pktbuf.Packet]struct{}, n),
		ringBase: ringBase,
		opInstr:  MempoolOpInstr,
	}
	metaSize := uint64(spec.MetaLayout.Size())
	if spec.SeparateMbuf {
		metaSize = MbufStructSize
	}
	for i := 0; i < n; i++ {
		base, err := arena.TryAlloc(metaSize+uint64(spec.Headroom+spec.DataRoom), memsim.CacheLineSize)
		if err != nil {
			return nil, fmt.Errorf("dpdk: mempool %q (%d of %d buffers placed): %w", name, i, n, err)
		}
		bufAddr := base + memsim.Addr(metaSize)
		p := pktbuf.NewPacket(make([]byte, spec.Headroom+spec.DataRoom), bufAddr, spec.Headroom)
		p.Owner = mp
		m := &pktbuf.Meta{Base: base, L: spec.MetaLayout, Prof: spec.Prof}
		m.Poke(layout.FieldBufAddr, uint64(bufAddr))
		if spec.SeparateMbuf {
			p.Mbuf = m
		} else {
			p.Meta = m
		}
		mp.free = append(mp.free, p)
	}
	return mp, nil
}

// Capacity returns the pool's total buffer count.
func (mp *Mempool) Capacity() int { return mp.capacity }

// Available returns the free buffer count.
func (mp *Mempool) Available() int { return len(mp.free) }

// Outstanding reports buffers currently allocated from the pool. After a
// drained run it must equal the buffers held by the NIC rings — the leak
// invariant the chaos harness checks.
func (mp *Mempool) Outstanding() int { return len(mp.out) }

// Get allocates a buffer, charging the free-list access, the mempool
// bookkeeping, and the mbuf rearm stores (rte_pktmbuf_reset touches the
// descriptor's first line). Returns nil when the pool is exhausted.
func (mp *Mempool) Get(core *machine.Core) *pktbuf.Packet {
	if mp.FaultDeplete != nil && mp.FaultDeplete(core.NowNS()) {
		mp.Fails++
		return nil
	}
	if len(mp.free) == 0 {
		mp.Fails++
		return nil
	}
	idx := len(mp.free) - 1
	p := mp.free[idx]
	mp.free = mp.free[:idx]
	mp.out[p] = struct{}{}
	mp.Gets++

	core.Load(mp.ringBase+memsim.Addr(idx*8), 8)
	core.Compute(mp.opInstr)

	// Rearm: reset offsets/refcount on the descriptor.
	m := mp.meta(p)
	m.Set(core, layout.FieldDataOff, uint64(mp.spec.Headroom))
	m.Set(core, layout.FieldRefCnt, 1)
	m.Set(core, layout.FieldNbSegs, 1)
	p.Reset(mp.spec.Headroom)
	return p
}

// Put frees a buffer back to the pool. A buffer that is not currently
// allocated from this pool — freed twice, or never taken from it — is
// rejected with a wrapped ErrDoubleFree and counted; the pool's ledger
// stays intact, so one buggy (or fault-injected) free cannot corrupt the
// free list the way rte_mempool's unchecked put does.
func (mp *Mempool) Put(core *machine.Core, p *pktbuf.Packet) error {
	if owner, ok := p.Owner.(*Mempool); ok && owner != mp {
		// rte_pktmbuf_free semantics: a buffer always returns to the pool
		// it was carved from, no matter which port frees it (multi-NIC
		// forwarding frees RX buffers of one port on another).
		return owner.Put(core, p)
	}
	if _, ok := mp.out[p]; !ok {
		mp.DoubleFrees++
		return fmt.Errorf("mempool %q: %w", mp.name, ErrDoubleFree)
	}
	delete(mp.out, p)
	core.Store(mp.ringBase+memsim.Addr(len(mp.free)*8), 8)
	core.Compute(mp.opInstr)
	// rte_pktmbuf_free reads the descriptor before recycling: the
	// refcount in the RX line and the pool/next pointers in the TX line
	// (cold — nothing touched it since this buffer's last rearm).
	m := mp.meta(p)
	core.Load(m.Base+memsim.Addr(m.L.Offset(layout.FieldRefCnt)), 2)
	core.Load(m.Base+64, 16)
	if mp.spec.SeparateMbuf {
		// The framework descriptor (if any) was detached by the app;
		// only the mbuf returns with the buffer.
		p.Meta = nil
	}
	mp.free = append(mp.free, p)
	mp.Puts++
	return nil
}

func (mp *Mempool) meta(p *pktbuf.Packet) *pktbuf.Meta {
	if mp.spec.SeparateMbuf {
		return p.Mbuf
	}
	return p.Meta
}

// AllocRawBuffers carves n bare buffers (headroom+dataroom, no descriptor)
// for the X-Change workflow, where metadata lives in the application's
// descriptor pool instead of in front of every buffer. An arena too small
// for the request returns a typed *memsim.ExhaustedError.
func AllocRawBuffers(arena *memsim.Arena, n, headroom, dataroom int) ([]*pktbuf.Packet, error) {
	out := make([]*pktbuf.Packet, n)
	for i := range out {
		base, err := arena.TryAlloc(uint64(headroom+dataroom), memsim.CacheLineSize)
		if err != nil {
			return nil, fmt.Errorf("dpdk: raw buffers (%d of %d placed): %w", i, n, err)
		}
		out[i] = pktbuf.NewPacket(make([]byte, headroom+dataroom), base, headroom)
	}
	return out, nil
}

// Port is one PMD-driven NIC queue pair. Dev is the device seam: a
// simulated queue pair (nic.QueuePair) or a live socket backend
// (wire.Port) — the PMD cannot tell them apart.
type Port struct {
	ID    int
	Dev   nic.Port
	Pool  *Mempool // nil under buffer-exchange bindings
	Bind  xchg.Binding
	Burst int

	// spare holds application-provided buffers awaiting RX posting
	// (X-Change) .
	spare []*pktbuf.Packet

	descs []nic.Descriptor
	reap  []*pktbuf.Packet

	// RxConvInstr approximates the per-packet descriptor-parsing work in
	// the RX hot loop (CQE decode, flags).
	RxConvInstr float64
	// TxConvInstr approximates per-packet SQE preparation work.
	TxConvInstr float64

	// Vectorized enables the SIMD receive path: compressed CQEs are
	// decoded four at a time with vector instructions, halving the
	// per-packet conversion work and quartering descriptor reads. The
	// paper's X-Change prototype does not support it ("we have disabled
	// it in all of our experiments, except in §4.1"), and neither does
	// ours: SetVectorized rejects exchange bindings.
	Vectorized bool

	// Drops is the port's drop ledger: packets this PMD had to shed
	// (descriptor-pool exhaustion on RX, double-free rejections). The
	// testbed merges it into the run's taxonomy.
	Drops stats.DropCounters

	// Stats is the port's poll/refill ledger, read by the telemetry layer.
	Stats PortStats

	// FaultDescDeplete, when set, makes the RX conversion path treat the
	// exchange descriptor pool as exhausted while it returns true — the
	// fault engine's exchange-pool depletion hook. Nil in normal runs.
	FaultDescDeplete func(nowNS float64) bool

	// Trace is the owning core's flight recorder, or nil. RxBurst runs
	// the 1-in-N sampler on every packet that survives conversion;
	// TxBurst emits the matching depart event.
	Trace *trace.CoreTrace

	// LatHist, when set, receives the RX→TX-enqueue latency of every
	// transmitted packet in nanoseconds — the port-level end-to-end
	// distribution behind the live exporter and report percentiles.
	LatHist *trace.Hist

	// OnTxLat, when set, observes (frame bytes, RX→TX-enqueue latency)
	// for every packet accepted by the TX ring — the flow log's
	// per-flow latency sampling hook. The callback must not retain the
	// frame slice and must not allocate: it runs on the hot path.
	OnTxLat func(frame []byte, latNS float64)

	// Overload is the core's overload control plane, or nil. When set,
	// RxBurst prices every arriving frame against the active admission
	// policy *before* paying conversion cost; a shed frame costs one
	// descriptor poll and a class lookup, nothing more. Sheds are booked
	// in Drops under the DropOverload* reasons so conservation balances.
	Overload *overload.Controller
}

// PortStats counts per-port PMD activity. RefillShort events used to be
// invisible: the refill loop would silently leave the RX ring short when
// buffers ran out, and the only symptom was a later RxDropNoBuf surge on
// the NIC.
type PortStats struct {
	// Polls counts RxBurst calls; EmptyPolls those that returned nothing.
	Polls, EmptyPolls uint64
	// RxPackets / TxPackets count packets handed to the application /
	// accepted for transmit.
	RxPackets, TxPackets uint64
	// RefillShort counts refill loops that could not restore every
	// consumed RX descriptor; RefillShortBufs counts the missing buffers.
	RefillShort, RefillShortBufs uint64
}

// Per-packet PMD instruction costs (beyond the charged memory accesses).
const (
	DefaultRxConvInstr = 30
	DefaultTxConvInstr = 26
)

// NewPort wires a PMD onto a device queue pair.
func NewPort(id int, dev nic.Port, pool *Mempool, bind xchg.Binding, burst int) *Port {
	if burst <= 0 {
		burst = 32
	}
	return &Port{
		ID: id, Dev: dev, Pool: pool, Bind: bind, Burst: burst,
		descs:       make([]nic.Descriptor, burst),
		reap:        make([]*pktbuf.Packet, burst*2),
		RxConvInstr: DefaultRxConvInstr,
		TxConvInstr: DefaultTxConvInstr,
	}
}

// SetVectorized switches the RX path to the SIMD implementation. It
// returns an error under an exchange binding, mirroring the paper's
// prototype limitation.
func (pt *Port) SetVectorized(on bool) error {
	if on && pt.Bind.ExchangesBuffers() {
		return fmt.Errorf("dpdk: port %d: vectorized PMD does not support X-Change (paper §4, footnote)", pt.ID)
	}
	pt.Vectorized = on
	return nil
}

// ProvideBuffers lends application buffers to the driver (X-Change setup
// and steady-state exchange).
func (pt *Port) ProvideBuffers(bufs []*pktbuf.Packet) {
	pt.spare = append(pt.spare, bufs...)
}

// SpareCount reports application buffers waiting to be posted.
func (pt *Port) SpareCount() int { return len(pt.spare) }

// SetupRX fills the receive ring with buffers: from the mempool under
// stock bindings, from the application's provided buffers under exchange
// bindings. It charges nothing (initialization phase).
//
// Frames already pending do not count against the fill. On a simulated
// queue none can be pending before the first post; on a live wire port,
// frames that arrived before setup wait in slots and need posted buffers
// to be polled into. Counting them would leave a port whose ring filled
// before setup with no buffers to poll into: a wedged session.
func (pt *Port) SetupRX() error {
	rxq := pt.Dev
	want := rxq.RXRingSize() - rxq.PostedCount()
	for i := 0; i < want; i++ {
		var b *pktbuf.Packet
		if pt.Bind.ExchangesBuffers() {
			if len(pt.spare) == 0 {
				return fmt.Errorf("dpdk: port %d: %d app buffers short for RX ring", pt.ID, want-i)
			}
			b = pt.spare[len(pt.spare)-1]
			pt.spare = pt.spare[:len(pt.spare)-1]
		} else {
			if b = pt.takeFromPoolInit(); b == nil {
				return fmt.Errorf("dpdk: port %d: mempool too small for RX ring", pt.ID)
			}
		}
		if err := rxq.Post(b); err != nil {
			return fmt.Errorf("dpdk: port %d: %w", pt.ID, err)
		}
	}
	return nil
}

// takeFromPoolInit pops a buffer without charging (init phase). The
// buffer still enters the allocation ledger: it will come back through
// Put during the run like any other.
func (pt *Port) takeFromPoolInit() *pktbuf.Packet {
	if pt.Pool == nil || len(pt.Pool.free) == 0 {
		return nil
	}
	idx := len(pt.Pool.free) - 1
	p := pt.Pool.free[idx]
	pt.Pool.free = pt.Pool.free[:idx]
	pt.Pool.out[p] = struct{}{}
	return p
}

// RxBurst polls up to len(out) receptions ready by nowNS, runs the
// conversion functions for each, refills the ring, and returns how many
// packets reached the application. This is rte_eth_rx_burst with the
// X-Change patch applied.
//
// Under an exchange binding, a packet whose application descriptor cannot
// be attached — the exchange pool is exhausted (§3.1's sizing rule
// violated at run time) or the fault engine's depletion window is open —
// is dropped with accounting: the buffer goes straight back to the
// driver's spare list, the port's PoolExhausted counter advances, and the
// burst reports a wrapped ErrPoolExhausted alongside the surviving count.
// The old behaviour was a panic that killed the whole experiment.
func (pt *Port) RxBurst(core *machine.Core, nowNS float64, out []*pktbuf.Packet) (int, error) {
	max := len(out)
	if max > len(pt.descs) {
		max = len(pt.descs)
	}
	rxq := pt.Dev
	if rxq.NextReadyNS() > nowNS {
		// Empty-poll fast path: nothing is ready, so skip the poll loop
		// and conversion setup entirely. The simulated charge is the same
		// as an empty Poll — just the CQE peek.
		pt.Stats.Polls++
		pt.Stats.EmptyPolls++
		core.Compute(4)
		return 0, nil
	}
	var n int
	if pt.Vectorized {
		n = rxq.PollCompressed(core, nowNS, max, out, pt.descs)
	} else {
		n = rxq.Poll(core, nowNS, max, out, pt.descs)
	}
	pt.Stats.Polls++
	if n == 0 {
		// An empty poll still costs the CQE peek.
		pt.Stats.EmptyPolls++
		core.Compute(4)
		return 0, nil
	}
	conv := pt.RxConvInstr
	if pt.Vectorized {
		conv /= 2 // SIMD decode amortizes the per-packet scalar work
	}
	if pt.Overload != nil {
		// Admission prices against the ring as it stands at poll time —
		// the frames still queued plus this burst — not the occupancy
		// cached at the last health observation.
		pt.Overload.NoteOccupancy(
			float64(rxq.PendingCount()+n) / float64(rxq.RXRingSize()))
	}
	kept := 0
	var exhausted uint64
	for i := 0; i < n; i++ {
		p, d := out[i], pt.descs[i]
		if pt.Overload != nil {
			core.Compute(2) // class lookup + watermark compare
			if ok, reason := pt.Overload.Admit(overload.ClassOf(p.Bytes())); !ok {
				pt.Drops.Add(reason, 1)
				pt.recycleRx(core, p)
				continue
			}
		}
		if pt.Bind.ExchangesBuffers() {
			gated := pt.FaultDescDeplete != nil && pt.FaultDescDeplete(nowNS)
			if gated || pt.Bind.RxMeta(p) == nil {
				exhausted++
				pt.Drops.Add(stats.DropPoolExhausted, 1)
				// Rewind to the buffer's own headroom: exchange pools may
				// reserve more than DPDK's stock 128 B, and resetting to
				// the global default would silently grow or shrink the
				// room every recycle.
				p.Reset(p.OrigHeadroom())
				pt.spare = append(pt.spare, p)
				continue
			}
		}
		core.Compute(conv)
		pt.Bind.SetDataLen(core, p, uint16(d.Len))
		pt.Bind.SetPktLen(core, p, uint32(d.Len))
		pt.Bind.SetPort(core, p, uint16(pt.ID))
		pt.Bind.SetRSSHash(core, p, d.RSSHash)
		pt.Bind.SetPacketType(core, p, d.PktType)
		if d.VlanTCI != 0 {
			pt.Bind.SetVlanTCI(core, p, d.VlanTCI)
		}
		if pt.Trace != nil {
			p.TraceID = pt.Trace.MaybeSample(d.Len, p.ArrivalNS)
		}
		out[kept] = p
		kept++
	}
	// Ring refill: replacement buffers come from the pool (stock) or the
	// application's exchanged spares (X-Change). n descriptors were
	// consumed from the ring regardless of how many survived conversion.
	refilled := 0
	for i := 0; i < n; i++ {
		var b *pktbuf.Packet
		if pt.Bind.ExchangesBuffers() {
			if len(pt.spare) == 0 {
				break // application under-provisioned; ring shrinks
			}
			b = pt.spare[len(pt.spare)-1]
			pt.spare = pt.spare[:len(pt.spare)-1]
			b.Reset(b.OrigHeadroom())
			core.Compute(4) // exchange bookkeeping, no pool machinery
		} else {
			if b = pt.Pool.Get(core); b == nil {
				break
			}
		}
		if err := rxq.Post(b); err != nil {
			// The ring will not take more buffers; return this one and
			// stop refilling rather than over-posting. Not a shortfall:
			// the ring is already full, so no descriptor went missing.
			pt.unrefill(core, b)
			refilled = n
			break
		}
		refilled++
	}
	if refilled < n {
		// Buffer starvation left the ring short — record it so the shrink
		// shows up in telemetry instead of only as later no-buf drops.
		pt.Stats.RefillShort++
		pt.Stats.RefillShortBufs += uint64(n - refilled)
	}
	pt.Stats.RxPackets += uint64(kept)
	if exhausted > 0 {
		return kept, fmt.Errorf("port %d: %d of %d packets dropped: %w",
			pt.ID, exhausted, n, ErrPoolExhausted)
	}
	return kept, nil
}

// recycleRx returns a freshly-polled buffer the admission shedder
// refused: straight back to the spare list (exchange bindings, where the
// application descriptor was never attached) or the mempool. The frame
// never reached conversion, so nothing else holds a reference.
func (pt *Port) recycleRx(core *machine.Core, p *pktbuf.Packet) {
	if pt.Bind.ExchangesBuffers() {
		p.Reset(p.OrigHeadroom())
		pt.spare = append(pt.spare, p)
		return
	}
	_ = pt.Pool.Put(core, p)
}

// unrefill returns a buffer the RX ring rejected to wherever it came from.
func (pt *Port) unrefill(core *machine.Core, b *pktbuf.Packet) {
	if pt.Bind.ExchangesBuffers() {
		pt.spare = append(pt.spare, b)
		return
	}
	// The buffer was just allocated from the pool, so this cannot
	// double-free.
	_ = pt.Pool.Put(core, b)
}

// TxBurst reaps completed transmissions (recycling their buffers) and
// enqueues pkts[0:n]; returns how many were accepted.
func (pt *Port) TxBurst(core *machine.Core, nowNS float64, pkts []*pktbuf.Packet) int {
	txq := pt.Dev

	// Reap finished frames first, releasing buffers for reuse.
	for {
		r := txq.Reap(nowNS, pt.reap)
		if r == 0 {
			break
		}
		for i := 0; i < r; i++ {
			done := pt.reap[i]
			if pt.Bind.ExchangesBuffers() {
				if cb, ok := pt.Bind.(*xchg.CustomBinding); ok {
					cb.Release(done)
				}
				pt.spare = append(pt.spare, done)
				core.Compute(2)
			} else if err := pt.Pool.Put(core, done); err != nil {
				// A reaped buffer that is not outstanding means someone
				// already freed it; the pool rejected the double free
				// and counted it — nothing else to unwind.
				continue
			}
		}
	}

	sent := 0
	for _, p := range pkts {
		core.Compute(pt.TxConvInstr)
		pt.Bind.GetDataLen(core, p)
		pt.Bind.GetBufAddr(core, p)
		if !txq.Enqueue(core, p, nowNS) {
			break
		}
		pt.LatHist.Record(nowNS - p.ArrivalNS)
		if pt.OnTxLat != nil {
			pt.OnTxLat(p.Bytes(), nowNS-p.ArrivalNS)
		}
		if p.TraceID != 0 {
			pt.Trace.Depart(p.TraceID, p.Len())
			p.TraceID = 0
		}
		if cb, ok := pt.Bind.(*xchg.CustomBinding); ok {
			// X-Change TX swap (§3.1): the metadata has been converted
			// into the SQE, so the application descriptor is free the
			// moment the packet sits in the ring — only the *buffer*
			// stays with the NIC until the wire drains it.
			cb.Release(p)
		}
		sent++
	}
	pt.Stats.TxPackets += uint64(sent)
	return sent
}
