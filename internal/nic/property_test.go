package nic

import (
	"testing"
	"testing/quick"

	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/pktbuf"
	"packetmill/internal/simrand"
)

// TestRxConservationProperty drives random delivery/poll interleavings and
// checks the invariant: delivered = polled + pending, and
// offered = delivered + dropped. No packet may ever be duplicated or lost
// inside the adapter.
func TestRxConservationProperty(t *testing.T) {
	r := simrand.New(0x71C)
	if err := quick.Check(func(seed uint16) bool {
		_ = seed
		m, core := machine.Default(2.0)
		huge := memsim.NewArena("huge", memsim.HugeBase, 1<<28)
		cfg := DefaultConfig("p")
		cfg.RXRingSize = 8 + r.Intn(56)
		cfg.MaxQueuePPS = 0
		n := New(cfg, m.Sys, huge)
		q := n.RX(0)

		post := func() bool {
			if q.PostedCount()+q.PendingCount() < cfg.RXRingSize {
				addr := huge.Alloc(2048, 64)
				q.Post(pktbuf.NewPacket(make([]byte, 2048), addr, 128))
				return true
			}
			return false
		}
		for i := 0; i < cfg.RXRingSize/2; i++ {
			post()
		}

		frame := make([]byte, 100)
		var offered, delivered, polled uint64
		now := 0.0
		pkts := make([]*pktbuf.Packet, 64)
		descs := make([]Descriptor, 64)
		steps := 50 + r.Intn(200)
		for i := 0; i < steps; i++ {
			switch r.Intn(4) {
			case 0, 1: // deliver
				offered++
				if n.Deliver(0, frame, now) {
					delivered++
				}
				now += 10
			case 2: // poll some
				got := q.Poll(core, now, 1+r.Intn(8), pkts, descs)
				polled += uint64(got)
			case 3: // repost a buffer
				post()
			}
		}
		dropped := q.Stats.DropNoBuf + q.Stats.DropFull
		if offered != delivered+dropped {
			t.Logf("offered %d != delivered %d + dropped %d", offered, delivered, dropped)
			return false
		}
		if delivered != polled+uint64(q.PendingCount()) {
			t.Logf("delivered %d != polled %d + pending %d", delivered, polled, q.PendingCount())
			return false
		}
		if q.Stats.Delivered != delivered {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTxOrderingProperty: departures must be monotonically non-decreasing
// regardless of enqueue times and frame sizes (the two pipelined resources
// never reorder frames).
func TestTxOrderingProperty(t *testing.T) {
	r := simrand.New(0x7E5)
	if err := quick.Check(func(seed uint16) bool {
		_ = seed
		m, core := machine.Default(2.0)
		huge := memsim.NewArena("huge", memsim.HugeBase, 1<<28)
		cfg := DefaultConfig("p")
		n := New(cfg, m.Sys, huge)
		tx := n.TX(0)
		var departs []float64
		n.OnDepart = func(_ *pktbuf.Packet, d float64) { departs = append(departs, d) }
		now := 0.0
		for i := 0; i < 100; i++ {
			addr := huge.Alloc(2048, 64)
			p := pktbuf.NewPacket(make([]byte, 2048), addr, 128)
			p.SetFrame(make([]byte, 64+r.Intn(1400)))
			if !tx.Enqueue(core, p, now) {
				break
			}
			now += float64(r.Intn(200))
		}
		for i := 1; i < len(departs); i++ {
			if departs[i] < departs[i-1] {
				t.Logf("departure %d (%.1f) before %d (%.1f)", i, departs[i], i-1, departs[i-1])
				return false
			}
			// And no frame departs before it was enqueued-ish (sanity:
			// positive timestamps).
			if departs[i] <= 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
