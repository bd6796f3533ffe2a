package dpdk

import (
	"errors"
	"testing"

	"packetmill/internal/layout"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/xchg"
)

type rig struct {
	mach *machine.Machine
	core *machine.Core
	nic  *nic.NIC
	huge *memsim.Arena
}

func newRig() *rig {
	m, core := machine.Default(2.0)
	huge := memsim.NewArena("huge", memsim.HugeBase, 1<<30)
	cfg := nic.DefaultConfig("nic0")
	cfg.RXRingSize = 256
	cfg.TXRingSize = 256
	cfg.MaxQueuePPS = 0
	return &rig{mach: m, core: core, nic: nic.New(cfg, m.Sys, huge), huge: huge}
}

func frame(size int) []byte {
	return netpkt.BuildUDP(make([]byte, 2048), netpkt.UDPPacketSpec{
		SrcIP: netpkt.IPv4{10, 0, 0, 1}, DstIP: netpkt.IPv4{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 53, TotalLen: size,
	})
}

// mustMempool builds a pool that is expected to fit its arena.
func mustMempool(name string, n int, arena *memsim.Arena, spec BufSpec) *Mempool {
	mp, err := NewMempool(name, n, arena, spec)
	if err != nil {
		panic(err)
	}
	return mp
}

// rxb is RxBurst for tests that expect no pool exhaustion.
func rxb(t *testing.T, pt *Port, core *machine.Core, now float64, out []*pktbuf.Packet) int {
	t.Helper()
	n, err := pt.RxBurst(core, now, out)
	if err != nil {
		t.Fatalf("RxBurst: %v", err)
	}
	return n
}

func TestMempoolGetPutLIFO(t *testing.T) {
	r := newRig()
	mp := mustMempool("mb", 8, r.huge, DefaultBufSpec())
	if mp.Capacity() != 8 || mp.Available() != 8 {
		t.Fatalf("cap=%d avail=%d", mp.Capacity(), mp.Available())
	}
	a := mp.Get(r.core)
	b := mp.Get(r.core)
	if a == nil || b == nil || a == b {
		t.Fatal("get broken")
	}
	mp.Put(r.core, b)
	if c := mp.Get(r.core); c != b {
		t.Fatal("pool not LIFO")
	}
}

func TestMempoolExhaustion(t *testing.T) {
	r := newRig()
	mp := mustMempool("mb", 2, r.huge, DefaultBufSpec())
	mp.Get(r.core)
	mp.Get(r.core)
	if mp.Get(r.core) != nil {
		t.Fatal("got buffer from empty pool")
	}
	if mp.Fails != 1 {
		t.Fatalf("Fails = %d", mp.Fails)
	}
}

func TestMempoolDoubleFreeDetected(t *testing.T) {
	r := newRig()
	mp := mustMempool("mb", 1, r.huge, DefaultBufSpec())
	p := mp.Get(r.core)
	if err := mp.Put(r.core, p); err != nil {
		t.Fatalf("first free: %v", err)
	}
	err := mp.Put(r.core, p)
	if !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second free: err = %v, want ErrDoubleFree", err)
	}
	if mp.DoubleFrees != 1 {
		t.Fatalf("DoubleFrees = %d", mp.DoubleFrees)
	}
	// The ledger must be intact: the buffer is free exactly once.
	if mp.Available() != 1 || mp.Outstanding() != 0 {
		t.Fatalf("ledger corrupted: avail=%d outstanding=%d", mp.Available(), mp.Outstanding())
	}
	// And the pool still works.
	if mp.Get(r.core) != p {
		t.Fatal("pool unusable after rejected double free")
	}
}

func TestMempoolForeignFreeRoutesToOwner(t *testing.T) {
	// rte_pktmbuf_free semantics: freeing through the wrong port's pool
	// must return the buffer to the pool it was carved from.
	r := newRig()
	a := mustMempool("a", 2, r.huge, DefaultBufSpec())
	b := mustMempool("b", 2, r.huge, DefaultBufSpec())
	p := a.Get(r.core)
	if err := b.Put(r.core, p); err != nil {
		t.Fatalf("foreign free: %v", err)
	}
	if a.Available() != 2 || b.Available() != 2 {
		t.Fatalf("buffer migrated: a=%d b=%d", a.Available(), b.Available())
	}
	if a.Outstanding() != 0 {
		t.Fatalf("owner ledger: %d outstanding", a.Outstanding())
	}
}

func TestMempoolDepletionRecoveryLedger(t *testing.T) {
	// Drain the pool to zero, free everything back, repeat — counters
	// and ledger must reconcile at every point.
	r := newRig()
	const capacity = 16
	mp := mustMempool("mb", capacity, r.huge, DefaultBufSpec())
	for cycle := 0; cycle < 3; cycle++ {
		var taken []*pktbuf.Packet
		for {
			p := mp.Get(r.core)
			if p == nil {
				break
			}
			taken = append(taken, p)
		}
		if len(taken) != capacity {
			t.Fatalf("cycle %d: drained %d, want %d", cycle, len(taken), capacity)
		}
		if mp.Available() != 0 || mp.Outstanding() != capacity {
			t.Fatalf("cycle %d: avail=%d outstanding=%d", cycle, mp.Available(), mp.Outstanding())
		}
		for _, p := range taken {
			if err := mp.Put(r.core, p); err != nil {
				t.Fatalf("cycle %d: put: %v", cycle, err)
			}
		}
		if mp.Available() != capacity || mp.Outstanding() != 0 {
			t.Fatalf("cycle %d after refill: avail=%d outstanding=%d",
				cycle, mp.Available(), mp.Outstanding())
		}
		if mp.Gets-mp.Puts != 0 {
			t.Fatalf("cycle %d: Gets-Puts = %d", cycle, mp.Gets-mp.Puts)
		}
	}
	if int(mp.Fails) != 3 {
		t.Fatalf("Fails = %d, want one per drain cycle", mp.Fails)
	}
}

func TestMempoolSeparateMbufGeometry(t *testing.T) {
	r := newRig()
	mp := mustMempool("mb", 4, r.huge, DefaultBufSpec())
	p := mp.Get(r.core)
	if p.Mbuf == nil || p.Meta != nil {
		t.Fatal("separate-mbuf spec must attach Mbuf only")
	}
	if p.Mbuf.L.Name() != "rte_mbuf" {
		t.Fatalf("mbuf layout %s", p.Mbuf.L.Name())
	}
	// Buffer must start right after the 128-B descriptor.
	if p.BufAddr != p.Mbuf.Base+MbufStructSize {
		t.Fatalf("buffer at %#x, mbuf at %#x", p.BufAddr, p.Mbuf.Base)
	}
	if p.Headroom() != DefaultHeadroom {
		t.Fatalf("headroom %d", p.Headroom())
	}
	if got := memsim.Addr(p.Mbuf.Peek(layout.FieldBufAddr)); got != p.BufAddr {
		t.Fatalf("buf_addr field %#x", got)
	}
}

func TestMempoolOverlayGeometry(t *testing.T) {
	r := newRig()
	spec := DefaultBufSpec()
	spec.MetaLayout = layout.OverlayPacket()
	spec.SeparateMbuf = false
	mp := mustMempool("ov", 4, r.huge, spec)
	p := mp.Get(r.core)
	if p.Meta == nil || p.Mbuf != nil {
		t.Fatal("overlay spec must attach Meta only")
	}
	if p.BufAddr != p.Meta.Base+memsim.Addr(layout.OverlayPacket().Size()) {
		t.Fatal("overlay buffer not after the fat descriptor")
	}
}

func TestMempoolRearmChargesDescriptor(t *testing.T) {
	r := newRig()
	mp := mustMempool("mb", 4, r.huge, DefaultBufSpec())
	before := r.core.Snapshot()
	mp.Get(r.core)
	d := r.core.Snapshot().Delta(before)
	if d.Instructions < MempoolOpInstr {
		t.Fatalf("get under-charged: %+v", d)
	}
}

func newDefaultPort(r *rig, poolSize int) *Port {
	mp := mustMempool("mb", poolSize, r.huge, DefaultBufSpec())
	pt := NewPort(0, r.nic.Port(0), mp, xchg.NewDefaultBinding(true), 32)
	if err := pt.SetupRX(); err != nil {
		panic(err)
	}
	return pt
}

func TestPortSetupFillsRing(t *testing.T) {
	r := newRig()
	pt := newDefaultPort(r, 512)
	if got := r.nic.RX(0).PostedCount(); got != 256 {
		t.Fatalf("posted %d, want ring size 256", got)
	}
	if pt.Pool.Available() != 512-256 {
		t.Fatalf("pool available %d", pt.Pool.Available())
	}
}

func TestPortSetupPoolTooSmall(t *testing.T) {
	r := newRig()
	mp := mustMempool("mb", 10, r.huge, DefaultBufSpec())
	if err := NewPort(0, r.nic.Port(0), mp, xchg.NewDefaultBinding(true), 32).SetupRX(); err == nil {
		t.Fatal("expected error for undersized pool")
	}
}

func TestRxBurstDefaultBinding(t *testing.T) {
	r := newRig()
	pt := newDefaultPort(r, 512)
	for i := 0; i < 10; i++ {
		if !r.nic.Deliver(0, frame(200), float64(i)) {
			t.Fatalf("deliver %d failed", i)
		}
	}
	out := make([]*pktbuf.Packet, 32)
	n := rxb(t, pt, r.core, 1e6, out)
	if n != 10 {
		t.Fatalf("rx %d", n)
	}
	p := out[0]
	if p.Mbuf.Peek(layout.FieldDataLen) != 200 || p.Mbuf.Peek(layout.FieldPktLen) != 200 {
		t.Fatalf("metadata: dataLen=%d", p.Mbuf.Peek(layout.FieldDataLen))
	}
	// The ring must be refilled to capacity.
	if got := r.nic.RX(0).PostedCount(); got != 256 {
		t.Fatalf("ring refill: posted %d", got)
	}
}

func TestRxBurstEmptyChargesPeek(t *testing.T) {
	r := newRig()
	pt := newDefaultPort(r, 512)
	before := r.core.Snapshot()
	if n := rxb(t, pt, r.core, 0, make([]*pktbuf.Packet, 32)); n != 0 {
		t.Fatalf("rx %d from idle port", n)
	}
	if d := r.core.Snapshot().Delta(before); d.Instructions == 0 {
		t.Fatal("empty poll was free")
	}
}

func TestTxBurstSendsAndRecycles(t *testing.T) {
	r := newRig()
	pt := newDefaultPort(r, 512)
	for i := 0; i < 4; i++ {
		r.nic.Deliver(0, frame(100), 0)
	}
	out := make([]*pktbuf.Packet, 32)
	n := rxb(t, pt, r.core, 1e6, out)
	availAfterRx := pt.Pool.Available()
	if sent := pt.TxBurst(r.core, 1e6, out[:n]); sent != n {
		t.Fatalf("sent %d of %d", sent, n)
	}
	// After wire departure, a later TxBurst reap returns buffers to pool.
	pt.TxBurst(r.core, 1e9, nil)
	if pt.Pool.Available() != availAfterRx+n {
		t.Fatalf("pool did not recover: %d vs %d+%d", pt.Pool.Available(), availAfterRx, n)
	}
	if r.nic.TX(0).Stats.Sent != uint64(n) {
		t.Fatalf("Sent = %d", r.nic.TX(0).Stats.Sent)
	}
}

func newXchgPort(r *rig) (*Port, *xchg.CustomBinding) {
	static := memsim.NewArena("static", memsim.StaticBase, 1<<20)
	dp, err := xchg.NewDescriptorPool(64, layout.XchgPacket(), static, nil)
	if err != nil {
		panic(err)
	}
	bind := xchg.NewCustomBinding("x-change", dp, true)
	pt := NewPort(0, r.nic.Port(0), nil, bind, 32)
	bufs, err := AllocRawBuffers(r.huge, 256+64, DefaultHeadroom, DefaultDataRoom)
	if err != nil {
		panic(err)
	}
	pt.ProvideBuffers(bufs)
	if err := pt.SetupRX(); err != nil {
		panic(err)
	}
	return pt, bind
}

func TestXchgRxAttachesAppDescriptors(t *testing.T) {
	r := newRig()
	pt, bind := newXchgPort(r)
	for i := 0; i < 8; i++ {
		r.nic.Deliver(0, frame(150), 0)
	}
	out := make([]*pktbuf.Packet, 32)
	n := rxb(t, pt, r.core, 1e6, out)
	if n != 8 {
		t.Fatalf("rx %d", n)
	}
	for i := 0; i < n; i++ {
		if out[i].Meta == nil || out[i].Mbuf != nil {
			t.Fatal("xchg packet must carry app descriptor, no mbuf")
		}
		if out[i].Meta.L.Name() != "xchg_packet" {
			t.Fatalf("layout %s", out[i].Meta.L.Name())
		}
		if out[i].Meta.Peek(layout.FieldDataLen) != 150 {
			t.Fatalf("dataLen %d", out[i].Meta.Peek(layout.FieldDataLen))
		}
	}
	if bind.Pool.FreeCount() != 64-8 {
		t.Fatalf("descriptor pool free %d", bind.Pool.FreeCount())
	}
}

func TestXchgBufferExchangeConservation(t *testing.T) {
	r := newRig()
	pt, bind := newXchgPort(r)
	out := make([]*pktbuf.Packet, 32)
	// Run several RX→TX cycles; buffers and descriptors must be conserved.
	now := 0.0
	for round := 0; round < 20; round++ {
		for i := 0; i < 16; i++ {
			r.nic.Deliver(0, frame(100), now)
		}
		now += 1e5
		n := rxb(t, pt, r.core, now, out)
		pt.TxBurst(r.core, now, out[:n])
	}
	// Let everything drain and reap.
	pt.TxBurst(r.core, now+1e9, nil)
	if got := bind.Pool.FreeCount(); got != 64 {
		t.Fatalf("descriptor leak: %d/64 free", got)
	}
	// All buffers either posted in the ring or spare.
	total := r.nic.RX(0).PostedCount() + pt.SpareCount()
	if total != 256+64 {
		t.Fatalf("buffer leak: %d posted+spare, want 320", total)
	}
}

func TestRxBurstDescPoolExhausted(t *testing.T) {
	// Undersize the exchange descriptor pool (violating the §3.1 sizing
	// rule): the burst must survive, drop the excess with accounting, and
	// report a typed error — not panic.
	r := newRig()
	static := memsim.NewArena("static", memsim.StaticBase, 1<<20)
	dp, err := xchg.NewDescriptorPool(4, layout.XchgPacket(), static, nil)
	if err != nil {
		t.Fatal(err)
	}
	bind := xchg.NewCustomBinding("x-change", dp, true)
	pt := NewPort(0, r.nic.Port(0), nil, bind, 32)
	bufs, err := AllocRawBuffers(r.huge, 256+64, DefaultHeadroom, DefaultDataRoom)
	if err != nil {
		t.Fatal(err)
	}
	pt.ProvideBuffers(bufs)
	if err := pt.SetupRX(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.nic.Deliver(0, frame(120), 0)
	}
	out := make([]*pktbuf.Packet, 32)
	n, err := pt.RxBurst(r.core, 1e6, out)
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
	if n != 4 {
		t.Fatalf("kept %d, want 4 (pool size)", n)
	}
	if got := pt.Drops.Get(stats.DropPoolExhausted); got != 6 {
		t.Fatalf("PoolExhausted drops = %d, want 6", got)
	}
	// Dropped buffers must not leak: ring posted + spare + the 4 held
	// packets account for every raw buffer.
	total := r.nic.RX(0).PostedCount() + pt.SpareCount() + n
	if total != 256+64 {
		t.Fatalf("buffer leak after exhausted burst: %d, want 320", total)
	}
	// Returning the survivors (TX + reap) fully recovers the pool.
	pt.TxBurst(r.core, 1e6, out[:n])
	pt.TxBurst(r.core, 1e9, nil)
	if dp.Outstanding() != 0 {
		t.Fatalf("descriptor leak: %d outstanding", dp.Outstanding())
	}
	// And the next burst succeeds again.
	for i := 0; i < 4; i++ {
		r.nic.Deliver(0, frame(80), 2e9)
	}
	if got := rxb(t, pt, r.core, 3e9, out); got != 4 {
		t.Fatalf("post-recovery rx %d", got)
	}
}

func TestDescPoolDepletionRecoveryCycles(t *testing.T) {
	// Repeated exhaust/recover cycles must keep the descriptor ledger
	// exact: size = free + outstanding at every step.
	dp, err := xchg.NewDescriptorPool(8, layout.XchgPacket(),
		memsim.NewArena("static", memsim.StaticBase, 1<<20), nil)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 5; cycle++ {
		var taken []*pktbuf.Meta
		for {
			m := dp.Get()
			if m == nil {
				break
			}
			taken = append(taken, m)
		}
		if len(taken) != 8 || dp.FreeCount() != 0 || dp.Outstanding() != 8 {
			t.Fatalf("cycle %d: taken=%d free=%d out=%d",
				cycle, len(taken), dp.FreeCount(), dp.Outstanding())
		}
		for _, m := range taken {
			dp.Put(m)
		}
		if dp.FreeCount() != 8 || dp.Outstanding() != 0 {
			t.Fatalf("cycle %d after refill: free=%d out=%d",
				cycle, dp.FreeCount(), dp.Outstanding())
		}
	}
}

func TestXchgWritesFewerMetadataLines(t *testing.T) {
	// Per received packet, the X-Change binding must dirty fewer
	// distinct metadata bytes than the default rte_mbuf binding; compare
	// charged work on the same traffic.
	run := func(exchange bool) float64 {
		r := newRig()
		var pt *Port
		if exchange {
			pt, _ = newXchgPort(r)
		} else {
			pt = newDefaultPort(r, 512)
		}
		for i := 0; i < 32; i++ {
			r.nic.Deliver(0, frame(100), 0)
		}
		out := make([]*pktbuf.Packet, 32)
		before := r.core.Snapshot()
		if _, err := pt.RxBurst(r.core, 1e6, out); err != nil {
			t.Fatal(err)
		}
		d := r.core.Snapshot().Delta(before)
		return d.BusyCycles
	}
	def, xc := run(false), run(true)
	if xc >= def {
		t.Fatalf("X-Change RX not cheaper: %v vs %v cycles", xc, def)
	}
}

func TestTxBurstRingFullStops(t *testing.T) {
	r := newRig()
	pt := newDefaultPort(r, 1024)
	// Fill the TX ring beyond capacity by never letting time advance.
	var pkts []*pktbuf.Packet
	for i := 0; i < 300; i++ {
		p := pt.Pool.Get(r.core)
		if p == nil {
			t.Fatal("pool dry")
		}
		p.SetFrame(frame(64))
		pkts = append(pkts, p)
	}
	sent := pt.TxBurst(r.core, 0, pkts)
	if sent != 256 {
		t.Fatalf("sent %d, want TX ring size 256", sent)
	}
}

func TestAllocRawBuffers(t *testing.T) {
	huge := memsim.NewArena("huge", memsim.HugeBase, 1<<24)
	bufs, err := AllocRawBuffers(huge, 10, 128, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(bufs) != 10 {
		t.Fatalf("%d buffers", len(bufs))
	}
	for _, b := range bufs {
		if b.Meta != nil || b.Mbuf != nil {
			t.Fatal("raw buffer carries a descriptor")
		}
		if b.Headroom() != 128 {
			t.Fatalf("headroom %d", b.Headroom())
		}
	}
	if bufs[1].BufAddr == bufs[0].BufAddr {
		t.Fatal("buffers share addresses")
	}
}

func TestVectorizedPMDRejectsExchange(t *testing.T) {
	r := newRig()
	pt, _ := newXchgPort(r)
	if err := pt.SetVectorized(true); err == nil {
		t.Fatal("vectorized accepted under an exchange binding")
	}
	if err := pt.SetVectorized(false); err != nil {
		t.Fatalf("disabling must always work: %v", err)
	}
}

func TestVectorizedPMDCheaperRx(t *testing.T) {
	cost := func(vec bool) float64 {
		r := newRig()
		pt := newDefaultPort(r, 512)
		if err := pt.SetVectorized(vec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			r.nic.Deliver(0, frame(100), 0)
		}
		out := make([]*pktbuf.Packet, 32)
		before := r.core.Snapshot()
		if n := rxb(t, pt, r.core, 1e6, out); n != 32 {
			t.Fatalf("rx %d", n)
		}
		return r.core.Snapshot().Delta(before).BusyCycles
	}
	scalar, vector := cost(false), cost(true)
	if vector >= scalar {
		t.Fatalf("vectorized RX not cheaper: %v vs %v cycles", vector, scalar)
	}
}

func TestVectorizedPMDSameSemantics(t *testing.T) {
	// Vectorized and scalar paths must deliver identical packets.
	rx := func(vec bool) []*pktbuf.Packet {
		r := newRig()
		pt := newDefaultPort(r, 512)
		pt.SetVectorized(vec)
		for i := 0; i < 10; i++ {
			r.nic.Deliver(0, frame(100+i), float64(i))
		}
		out := make([]*pktbuf.Packet, 32)
		n := rxb(t, pt, r.core, 1e6, out)
		return out[:n]
	}
	a, b := rx(false), rx(true)
	if len(a) != len(b) {
		t.Fatalf("counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Len() != b[i].Len() {
			t.Fatalf("packet %d length differs: %d vs %d", i, a[i].Len(), b[i].Len())
		}
		if a[i].Mbuf.Peek(layout.FieldDataLen) != b[i].Mbuf.Peek(layout.FieldDataLen) {
			t.Fatalf("packet %d metadata differs", i)
		}
	}
}
