package nic

import (
	"fmt"
	"strings"
	"testing"

	"packetmill/internal/netpkt"
	"packetmill/internal/trafficgen"
)

// TestRSSSpreadsVLANMix is the queue-collapse regression: a 4-queue NIC
// offered a VLAN-tagged TCP/UDP/ARP mix must spread traffic so no queue
// receives more than 2× its fair share. Before the rssHash fix every
// 802.1Q frame (and every non-IPv4 frame) hashed to 0, pinning the whole
// load onto queue 0.
func TestRSSSpreadsVLANMix(t *testing.T) {
	const queues = 4
	cfg := DefaultConfig("rss")
	cfg.NumQueues = queues
	r := newRig(cfg)

	src := trafficgen.NewFixedSize(trafficgen.Config{
		Seed: 7, RateGbps: 100, Count: 20000, Flows: 512,
		TCPShare: 0.55, UDPShare: 0.35, ICMPShare: 0.05, // remainder ARP
		VLANID: 42,
	}, 128)

	counts := make([]int, queues)
	total := 0
	for {
		frame, _, ok := src.Next()
		if !ok {
			break
		}
		if frame[12] != 0x81 || frame[13] != 0x00 {
			t.Fatalf("generator produced untagged frame")
		}
		counts[r.nic.RSSQueue(frame)]++
		total++
	}
	fair := float64(total) / queues
	for q, c := range counts {
		if float64(c) > 2*fair {
			t.Fatalf("queue %d got %d of %d frames (>2x fair share %.0f): %v",
				q, c, total, fair, counts)
		}
		if c == 0 {
			t.Fatalf("queue %d received nothing: %v", q, counts)
		}
	}
}

// TestRSSTaggedMatchesUntaggedFlow checks the VLAN skip finds the same
// flow hash as the untagged frame — tagging must not reshuffle flows.
func TestRSSTaggedMatchesUntaggedFlow(t *testing.T) {
	frame := netpkt.BuildTCP(make([]byte, 128), netpkt.TCPPacketSpec{
		SrcMAC: netpkt.MAC{2, 0, 0, 0, 0, 1}, DstMAC: netpkt.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: netpkt.IPv4{10, 0, 0, 1}, DstIP: netpkt.IPv4{10, 1, 0, 1},
		SrcPort: 1234, DstPort: 80, TotalLen: 128,
	})
	// Copy into a fresh buffer with headroom: the in-place insert would
	// otherwise corrupt the untagged frame we hash against.
	buf := make([]byte, netpkt.VLANTagLen+len(frame))
	copy(buf[netpkt.VLANTagLen:], frame)
	tagged := netpkt.InsertVLAN(buf, netpkt.VLANTagLen, netpkt.VLANTag{VID: 7})
	if h1, h2 := rssHash(frame), rssHash(tagged); h1 != h2 {
		t.Fatalf("tagged flow hashed %#x, untagged %#x — VLAN shim not skipped", h2, h1)
	}
}

// TestRSSNonIPv4NotConstant checks distinct ARP frames no longer share
// the constant 0 hash.
func TestRSSNonIPv4NotConstant(t *testing.T) {
	mk := func(last byte) []byte {
		f := make([]byte, 64)
		netpkt.PutEther(f, netpkt.EtherHeader{
			Dst:       netpkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
			Src:       netpkt.MAC{2, 0, 0, 0, 0, last},
			EtherType: netpkt.EtherTypeARP,
		})
		netpkt.PutARP(f[netpkt.EtherHdrLen:], netpkt.ARPPacket{
			Op: netpkt.ARPRequest, SenderHA: netpkt.MAC{2, 0, 0, 0, 0, last},
			SenderIP: netpkt.IPv4{10, 0, 0, last}, TargetIP: netpkt.IPv4{10, 1, 0, 1},
		})
		return f
	}
	seen := map[uint32]bool{}
	for i := byte(1); i <= 8; i++ {
		seen[rssHash(mk(i))] = true
	}
	if len(seen) < 4 {
		t.Fatalf("8 distinct ARP flows produced only %d hashes", len(seen))
	}
}

// TestFrameVlanTCIBothTPIDs: the stripped-tag extraction must accept
// both shim TPIDs — 802.1Q (0x8100) and 802.1ad/QinQ (0x88a8) — the same
// way the rssHash shim walk does. Before the fix a QinQ frame's
// descriptor carried VlanTCI 0 while its RSS hash still skipped the
// shim, so the two disagreed about whether the frame was tagged.
func TestFrameVlanTCIBothTPIDs(t *testing.T) {
	mk := func(tpid, tci uint16) []byte {
		f := make([]byte, 64)
		f[12], f[13] = byte(tpid>>8), byte(tpid)
		f[14], f[15] = byte(tci>>8), byte(tci)
		f[16], f[17] = 0x08, 0x00
		return f
	}
	if got := FrameVlanTCI(mk(netpkt.EtherTypeVLAN, 0x0123)); got != 0x0123 {
		t.Fatalf("802.1Q TCI = %#x, want 0x0123", got)
	}
	if got := FrameVlanTCI(mk(netpkt.EtherTypeQinQ, 0x2456)); got != 0x2456 {
		t.Fatalf("QinQ service tag = %#x, want 0x2456", got)
	}
	if got := FrameVlanTCI(mk(netpkt.EtherTypeIPv4, 0xbeef)); got != 0 {
		t.Fatalf("untagged frame TCI = %#x, want 0", got)
	}
	if got := FrameVlanTCI(make([]byte, netpkt.EtherHdrLen+1)); got != 0 {
		t.Fatalf("short frame TCI = %#x, want 0", got)
	}
}

// TestDeliverShortVLANFrameSafe is the bounds-guard regression for the
// Deliver TCI read: a frame that looks like 802.1Q but ends before the
// TCI must not read past the buffer. (Today the runt check drops it
// first; the guard must hold even if that ordering changes.)
func TestDeliverShortVLANFrameSafe(t *testing.T) {
	r := newRig(DefaultConfig("short"))
	r.nic.RX(0).Post(r.freshBuf())
	frame := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x81, 0x00, 0xff} // 15B, no TCI
	if r.nic.Deliver(0, frame, 0) {
		t.Fatal("15-byte frame accepted")
	}
	if r.nic.RX(0).Stats.DropRunt != 1 || !strings.Contains(r.nic.String(), " dropRunt=1 ") {
		t.Fatalf("runt not counted per queue and in the NIC summary: %+v, %s",
			r.nic.RX(0).Stats, r.nic)
	}
}

// TestPerQueueStatsPartitionNICStats delivers across queues and checks
// each queue's ledger, and that the adapter summary reports their sums.
func TestPerQueueStatsPartitionNICStats(t *testing.T) {
	cfg := DefaultConfig("split")
	cfg.NumQueues = 4
	r := newRig(cfg)
	for q := 0; q < 4; q++ {
		for i := 0; i < q+1; i++ {
			if err := r.nic.RX(q).Post(r.freshBuf()); err != nil {
				t.Fatal(err)
			}
		}
	}
	frame := testFrame(64)
	for q := 0; q < 4; q++ {
		for i := 0; i < q+2; i++ { // one more than posted: last drops no-buf
			r.nic.Deliver(q, frame, float64(i))
		}
	}
	var delivered, noBuf uint64
	for q := 0; q < 4; q++ {
		st := r.nic.RX(q).Stats
		if st.Delivered != uint64(q+1) || st.DropNoBuf != 1 {
			t.Fatalf("queue %d stats: %+v", q, st)
		}
		delivered += st.Delivered
		noBuf += st.DropNoBuf
	}
	want := fmt.Sprintf("split: rx=%d dropNoBuf=%d ", delivered, noBuf)
	if got := r.nic.String(); !strings.HasPrefix(got, want) {
		t.Fatalf("NIC summary %q, want the per-queue sums %q...", got, want)
	}
}
