package wire

import (
	"testing"

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
// exactly one queue, and the queue is the one the static indirection
// table (bucket = hash mod table size, queue = bucket mod N) picks —
// software RSS, deterministic and flow-affine.
func TestFanoutDemux(t *testing.T) {
	near, far, err := Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	f := NewFanout(Config{Name: "fan", RXRing: 1024}, 2, near, nil)
	defer f.Close()
	defer far.Close()

	const flows, per = 32, 8
	want := make([]uint64, 2)
	for fl := 0; fl < flows; fl++ {
		frame := flowFrame(uint16(1000 + fl))
		want[int(nic.HashFrame(frame)&(FanoutBuckets-1))%2] += per
		for i := 0; i < per; i++ {
			if _, err := far.Write(frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCond(t, "all frames demuxed", func() bool {
		return fanoutOffered(f.Queue(0))+fanoutOffered(f.Queue(1)) == flows*per
	})
	for q := 0; q < 2; q++ {
		if got := f.Queue(q).RXStats().Delivered; got != want[q] {
			t.Fatalf("queue %d delivered %d frames, indirection table says %d", q, got, want[q])
		}
		if want[q] == 0 {
			t.Fatalf("degenerate flow set: every flow hashed to one queue")
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
