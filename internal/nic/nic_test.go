package nic

import (
	"errors"
	"math"
	"testing"

	"packetmill/internal/cache"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
	"packetmill/internal/pktbuf"
)

type rig struct {
	mach *machine.Machine
	core *machine.Core
	nic  *NIC
	huge *memsim.Arena
}

func newRig(cfg Config) *rig {
	m, core := machine.Default(2.0)
	huge := memsim.NewArena("huge", memsim.HugeBase, 1<<30)
	return &rig{mach: m, core: core, nic: New(cfg, m.Sys, huge), huge: huge}
}

func (r *rig) freshBuf() *pktbuf.Packet {
	addr := r.huge.Alloc(2048, 2048)
	return pktbuf.NewPacket(make([]byte, 2048), addr, 128)
}

func testFrame(size int) []byte {
	return netpkt.BuildUDP(make([]byte, 2048), netpkt.UDPPacketSpec{
		SrcIP: netpkt.IPv4{10, 0, 0, 1}, DstIP: netpkt.IPv4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, TotalLen: size,
	})
}

func TestDeliverPollRoundTrip(t *testing.T) {
	r := newRig(DefaultConfig("nic0"))
	q := r.nic.RX(0)
	q.Post(r.freshBuf())
	frame := testFrame(128)
	if !r.nic.Deliver(0, frame, 100) {
		t.Fatal("deliver failed")
	}
	pkts := make([]*pktbuf.Packet, 32)
	descs := make([]Descriptor, 32)
	n := q.Poll(r.core, 1e9, 32, pkts, descs)
	if n != 1 {
		t.Fatalf("polled %d", n)
	}
	if pkts[0].Len() != 128 || descs[0].Len != 128 {
		t.Fatalf("lengths: pkt=%d desc=%d", pkts[0].Len(), descs[0].Len)
	}
	if pkts[0].ArrivalNS != 100 {
		t.Fatalf("arrival = %v", pkts[0].ArrivalNS)
	}
	if string(pkts[0].Bytes()) != string(frame) {
		t.Fatal("payload corrupted in DMA")
	}
}

func TestDeliverDropsWithoutBuffers(t *testing.T) {
	r := newRig(DefaultConfig("nic0"))
	if r.nic.Deliver(0, testFrame(64), 0) {
		t.Fatal("delivered with no posted buffer")
	}
	if r.nic.RX(0).Stats.DropNoBuf != 1 {
		t.Fatalf("drop counter = %d", r.nic.RX(0).Stats.DropNoBuf)
	}
}

func TestDeliverDropsWhenRingFull(t *testing.T) {
	cfg := DefaultConfig("nic0")
	cfg.RXRingSize = 4
	r := newRig(cfg)
	q := r.nic.RX(0)
	for i := 0; i < 4; i++ {
		q.Post(r.freshBuf())
	}
	for i := 0; i < 4; i++ {
		if !r.nic.Deliver(0, testFrame(64), float64(i)) {
			t.Fatalf("deliver %d failed", i)
		}
	}
	if r.nic.Deliver(0, testFrame(64), 5) {
		t.Fatal("delivered into full ring")
	}
	if q.Stats.DropFull != 1 {
		t.Fatalf("DropFull = %d", q.Stats.DropFull)
	}
}

func TestOverPostReturnsError(t *testing.T) {
	cfg := DefaultConfig("nic0")
	cfg.RXRingSize = 2
	r := newRig(cfg)
	q := r.nic.RX(0)
	if err := q.Post(r.freshBuf()); err != nil {
		t.Fatal(err)
	}
	if err := q.Post(r.freshBuf()); err != nil {
		t.Fatal(err)
	}
	if err := q.Post(r.freshBuf()); !errors.Is(err, ErrOverPosted) {
		t.Fatalf("over-post: err = %v, want ErrOverPosted", err)
	}
	if got := q.PostedCount(); got != 2 {
		t.Fatalf("posted %d after rejected post", got)
	}
}

func TestPollRespectsReadyTime(t *testing.T) {
	r := newRig(DefaultConfig("nic0"))
	q := r.nic.RX(0)
	q.Post(r.freshBuf())
	r.nic.Deliver(0, testFrame(64), 5000)
	pkts := make([]*pktbuf.Packet, 32)
	descs := make([]Descriptor, 32)
	if n := q.Poll(r.core, 1000, 32, pkts, descs); n != 0 {
		t.Fatalf("polled %d before arrival", n)
	}
	if n := q.Poll(r.core, 6000, 32, pkts, descs); n != 1 {
		t.Fatalf("polled %d after arrival", n)
	}
}

func TestQueuePPSCeilingPacesCompletions(t *testing.T) {
	cfg := DefaultConfig("nic0")
	cfg.MaxQueuePPS = 1e6 // 1 µs spacing
	r := newRig(cfg)
	q := r.nic.RX(0)
	for i := 0; i < 3; i++ {
		q.Post(r.freshBuf())
	}
	// All arrive at t=0; completions must be spaced 1 µs apart.
	for i := 0; i < 3; i++ {
		r.nic.Deliver(0, testFrame(64), 0)
	}
	pkts := make([]*pktbuf.Packet, 32)
	descs := make([]Descriptor, 32)
	if n := q.Poll(r.core, 500, 32, pkts, descs); n != 1 {
		t.Fatalf("at 0.5µs polled %d, want 1", n)
	}
	if n := q.Poll(r.core, 1500, 32, pkts, descs); n != 1 {
		t.Fatalf("at 1.5µs polled %d more, want 1", n)
	}
	if n := q.Poll(r.core, 1e9, 32, pkts, descs); n != 1 {
		t.Fatalf("final poll %d, want 1", n)
	}
}

func TestNextReadyNS(t *testing.T) {
	r := newRig(DefaultConfig("nic0"))
	q := r.nic.RX(0)
	if !math.IsInf(q.NextReadyNS(), 1) {
		t.Fatal("idle queue NextReadyNS not +Inf")
	}
	q.Post(r.freshBuf())
	r.nic.Deliver(0, testFrame(64), 777)
	if q.NextReadyNS() != 777 {
		t.Fatalf("NextReadyNS = %v", q.NextReadyNS())
	}
}

func TestDMAPopulatesLLC(t *testing.T) {
	r := newRig(DefaultConfig("nic0"))
	q := r.nic.RX(0)
	buf := r.freshBuf()
	q.Post(buf)
	r.nic.Deliver(0, testFrame(512), 0)
	pkts := make([]*pktbuf.Packet, 32)
	descs := make([]Descriptor, 32)
	q.Poll(r.core, 1, 32, pkts, descs)
	// Reading the packet's first line must hit LLC (DDIO), not DRAM.
	if lvl := r.core.Load(pkts[0].DataAddr(), 64); lvl != cache.LLC {
		t.Fatalf("DMA'd payload served from %v, want LLC", lvl)
	}
}

func TestTxSerializationAtLineRate(t *testing.T) {
	cfg := DefaultConfig("nic0")
	cfg.MaxQueuePPS = 0
	r := newRig(cfg)
	tx := r.nic.TX(0)
	var departs []float64
	r.nic.OnDepart = func(_ *pktbuf.Packet, d float64) { departs = append(departs, d) }
	for i := 0; i < 3; i++ {
		p := r.freshBuf()
		p.SetFrame(testFrame(1000))
		if !tx.Enqueue(r.core, p, 0) {
			t.Fatal("enqueue failed")
		}
	}
	// 1020 B on the wire at 100 Gbps = 81.6 ns per frame.
	want := 1020.0 * 8 / 100
	if math.Abs(departs[0]-want) > 1e-9 {
		t.Fatalf("first departure %v, want %v", departs[0], want)
	}
	if gap := departs[1] - departs[0]; math.Abs(gap-want) > 1e-9 {
		t.Fatalf("inter-departure gap %v, want %v", gap, want)
	}
}

func TestTxRingFullDrops(t *testing.T) {
	cfg := DefaultConfig("nic0")
	cfg.TXRingSize = 2
	r := newRig(cfg)
	tx := r.nic.TX(0)
	for i := 0; i < 2; i++ {
		p := r.freshBuf()
		p.SetFrame(testFrame(64))
		if !tx.Enqueue(r.core, p, 0) {
			t.Fatal("enqueue failed")
		}
	}
	p := r.freshBuf()
	p.SetFrame(testFrame(64))
	if tx.Enqueue(r.core, p, 0) {
		t.Fatal("enqueued into full ring")
	}
	if tx.Stats.DropFull != 1 {
		t.Fatalf("DropFull = %d", tx.Stats.DropFull)
	}
}

func TestTxReapRecyclesAfterDeparture(t *testing.T) {
	r := newRig(DefaultConfig("nic0"))
	tx := r.nic.TX(0)
	p := r.freshBuf()
	p.SetFrame(testFrame(1000))
	tx.Enqueue(r.core, p, 0)
	out := make([]*pktbuf.Packet, 8)
	if n := tx.Reap(1, out); n != 0 {
		t.Fatalf("reaped %d before departure", n)
	}
	if n := tx.Reap(1e6, out); n != 1 || out[0] != p {
		t.Fatalf("reap after departure: n=%d", n)
	}
	if tx.InflightCount() != 0 {
		t.Fatal("inflight not drained")
	}
}

func TestRSSSpreadsFlows(t *testing.T) {
	cfg := DefaultConfig("nic0")
	cfg.NumQueues = 4
	r := newRig(cfg)
	seen := map[int]int{}
	for i := 0; i < 64; i++ {
		f := netpkt.BuildUDP(make([]byte, 256), netpkt.UDPPacketSpec{
			SrcIP: netpkt.IPv4{10, 0, byte(i), 1}, DstIP: netpkt.IPv4{10, 1, 0, 2},
			SrcPort: uint16(1000 + i), DstPort: 80, TotalLen: 100,
		})
		seen[r.nic.RSSQueue(f)]++
	}
	if len(seen) < 3 {
		t.Fatalf("RSS used only %d of 4 queues: %v", len(seen), seen)
	}
}

func TestRSSIsFlowStable(t *testing.T) {
	cfg := DefaultConfig("nic0")
	cfg.NumQueues = 4
	r := newRig(cfg)
	f := testFrame(200)
	q := r.nic.RSSQueue(f)
	for i := 0; i < 10; i++ {
		if r.nic.RSSQueue(f) != q {
			t.Fatal("RSS not deterministic per flow")
		}
	}
}

func TestVLANDescriptorExtraction(t *testing.T) {
	r := newRig(DefaultConfig("nic0"))
	q := r.nic.RX(0)
	q.Post(r.freshBuf())
	buf := make([]byte, netpkt.VLANTagLen+100)
	copy(buf[netpkt.VLANTagLen:], testFrame(100))
	tagged := netpkt.InsertVLAN(buf, netpkt.VLANTagLen, netpkt.VLANTag{PCP: 3, VID: 7})
	r.nic.Deliver(0, tagged, 0)
	pkts := make([]*pktbuf.Packet, 1)
	descs := make([]Descriptor, 1)
	q.Poll(r.core, 1, 1, pkts, descs)
	wantTCI := uint16(3)<<13 | 7
	if descs[0].VlanTCI != wantTCI {
		t.Fatalf("VlanTCI = %#x, want %#x", descs[0].VlanTCI, wantTCI)
	}
}

func TestStringSummary(t *testing.T) {
	r := newRig(DefaultConfig("nicX"))
	if s := r.nic.String(); s == "" {
		t.Fatal("empty summary")
	}
}
