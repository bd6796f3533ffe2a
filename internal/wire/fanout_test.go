package wire

import (
	"fmt"
	"testing"

	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/nic"
)

// flowFrame builds a minimal IPv4/UDP frame whose flow identity is the
// UDP source port — distinct ports hash to (mostly) distinct buckets.
func flowFrame(srcPort uint16) []byte {
	f := make([]byte, 64)
	f[12], f[13] = 0x08, 0x00            // IPv4
	f[14] = 0x45                         // version + IHL
	f[14+9] = 17                         // UDP
	copy(f[14+12:], []byte{10, 0, 0, 1}) // src IP
	copy(f[14+16:], []byte{10, 0, 0, 2}) // dst IP
	f[14+20], f[14+21] = byte(srcPort>>8), byte(srcPort)
	f[14+22], f[14+23] = 0x1f, 0x90 // dst port 8080
	return f
}

// fanoutOffered is the load a queue saw: frames filed into its ring plus
// frames the ring refused — what the demux sent its way, poll or no poll.
func fanoutOffered(q *Port) uint64 {
	s := q.RXStats()
	return s.Delivered + s.DropFull + s.DropRunt
}

// TestFanoutDemux: every frame written to the shared socket lands on
// exactly one queue, and the queue is the one the simulated adapter's
// RSS picks for the same frame at the same queue count — software RSS
// places a flow on the core the N-core simulation would. N = 3 is the
// case a power-of-two indirection table gets wrong.
func TestFanoutDemux(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) { runFanoutDemux(t, n) })
	}
}

func runFanoutDemux(t *testing.T, n int) {
	near, far, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	f := NewFanout(Config{Name: "fan", RXRing: 1024}, n, near, nil)
	defer f.Close()
	defer far.Close()

	simCfg := nic.DefaultConfig("sim")
	simCfg.NumQueues = n
	m, _ := machine.Default(2.0)
	sim := nic.New(simCfg, m.Sys, memsim.NewArena("huge", memsim.HugeBase, 1<<30))

	// Flow fl sends fl+1 frames, so the per-queue totals pin down which
	// flows each queue got, not only how many.
	const flows = 32
	want := make([]uint64, n)
	var total uint64
	for fl := 0; fl < flows; fl++ {
		frame := flowFrame(uint16(1000 + fl))
		want[sim.RSSQueue(frame)] += uint64(fl + 1)
		for i := 0; i <= fl; i++ {
			if _, err := far.Write(frame); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	waitCond(t, "all frames demuxed", func() bool {
		var sum uint64
		for q := 0; q < n; q++ {
			sum += fanoutOffered(f.Queue(q))
		}
		return sum == total
	})
	for q := 0; q < n; q++ {
		if got := f.Queue(q).RXStats().Delivered; got != want[q] {
			t.Fatalf("queue %d delivered %d frames, the simulated adapter's RSS says %d", q, got, want[q])
		}
		if want[q] == 0 {
			t.Fatalf("degenerate flow set: queue %d got no flow", q)
		}
	}
}

// TestFanoutRuntAndOverflowCounters: demuxed delivery books runts and
// ring overruns on the owning queue exactly like a port's own reader.
func TestFanoutRuntAndOverflowCounters(t *testing.T) {
	near, far, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	f := NewFanout(Config{RXRing: 4}, 1, near, nil)
	defer f.Close()
	defer far.Close()

	if _, err := far.Write(make([]byte, 20)); err != nil { // runt
		t.Fatal(err)
	}
	frame := flowFrame(1)
	for i := 0; i < 6; i++ { // 4 fill the ring, 2 overflow
		if _, err := far.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "counters settled", func() bool {
		s := f.Queue(0).RXStats()
		return s.DropRunt == 1 && s.Delivered == 4 && s.DropFull == 2
	})
}
