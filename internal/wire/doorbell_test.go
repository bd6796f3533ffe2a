package wire

import (
	"net"
	"testing"

	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
)

// TestDoorbellKicksOnEmptyToNonEmpty: a port rings its doorbell exactly
// when its RX ring goes from empty to non-empty — once for the first
// frame, not again while frames stay pending, and again for the first
// frame after a poll has emptied the ring. Both RX feeds are covered: a
// port's own socket reader and a Fanout queue filed by the shared reader.
func TestDoorbellKicksOnEmptyToNonEmpty(t *testing.T) {
	frame := flowFrame(4000)
	t.Run("socket", func(t *testing.T) {
		near, far, err := Socketpair()
		if err != nil {
			t.Fatal(err)
		}
		p := NewPort(Config{Name: "bell"}, near, nil)
		defer p.Close()
		defer far.Close()
		checkDoorbell(t, p, far, frame)
	})
	t.Run("fanout", func(t *testing.T) {
		near, far, err := Socketpair()
		if err != nil {
			t.Fatal(err)
		}
		f := NewFanout(Config{Name: "bell"}, 2, near, nil)
		defer f.Close()
		defer far.Close()
		// The other queue's bell must stay silent: its ring never fills.
		other := make(chan struct{}, 1)
		q := nic.Queue(frame, 2)
		f.Queue(1 - q).SetDoorbell(other)
		checkDoorbell(t, f.Queue(q), far, frame)
		if len(other) != 0 {
			t.Error("a queue that received nothing rang its doorbell")
		}
	})
}

// checkDoorbell drives p's RX ring through empty → 1 → 2 → empty → 1
// by writing frame to peer, and checks the bell after each step. The
// kick happens under the lock that files the frame, so the token is in
// the bell by the time PendingCount sees the frame.
func checkDoorbell(t *testing.T, p *Port, peer net.Conn, frame []byte) {
	t.Helper()
	bell := make(chan struct{}, 1)
	p.SetDoorbell(bell)
	send := func() {
		t.Helper()
		if _, err := peer.Write(frame); err != nil {
			t.Fatal(err)
		}
	}

	send()
	waitPending(t, p, 1)
	if len(bell) != 1 {
		t.Fatal("first frame into an empty ring rang no doorbell")
	}
	<-bell

	send()
	waitPending(t, p, 2)
	if len(bell) != 0 {
		t.Fatal("a frame into a non-empty ring rang the doorbell again")
	}

	for i := 0; i < 2; i++ {
		if err := p.Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); err != nil {
			t.Fatal(err)
		}
	}
	pkts := make([]*pktbuf.Packet, 4)
	descs := make([]nic.Descriptor, 4)
	if n := p.Poll(nil, 0, len(pkts), pkts, descs); n != 2 || p.PendingCount() != 0 {
		t.Fatalf("poll took %d frames, %d still pending; want 2 and 0", n, p.PendingCount())
	}
	if len(bell) != 0 {
		t.Fatal("emptying the ring rang the doorbell")
	}

	send()
	waitPending(t, p, 1)
	if len(bell) != 1 {
		t.Fatal("first frame after the ring drained rang no doorbell")
	}
}
