package testbed

import (
	"context"
	"encoding/binary"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/netpkt"
	"packetmill/internal/nic"
	"packetmill/internal/wire"
)

// TestFanoutNATPortsStable: software RSS must keep every flow on one
// core, because that core's NAT replica alone holds the flow's mapping.
// A 2-core fanout serves a NAT under one elephant flow carrying half the
// load plus 64 mice; every flow must leave under exactly one external
// port. A demux that moved a flow's bucket to the other core mid-flow
// would hand it to a replica with no mapping, which picks a fresh port.
func TestFanoutNATPortsStable(t *testing.T) {
	const (
		cores  = 2
		mice   = 64
		total  = 24576
		window = 256 // frames in flight before the sender waits
	)
	g, err := click.Parse(`FromDPDKDevice(PORT 0) -> IPRewriter(EXTIP 192.168.100.1) -> ToDPDKDevice(PORT 0);`)
	if err != nil {
		t.Fatal(err)
	}
	rxNear, rxFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	txNear, txFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	defer rxFar.Close()
	defer txFar.Close()
	f := wire.NewFanout(wire.Config{Name: "rss", RXRing: 512, TXRing: 512}, cores, rxNear, txNear)
	defer f.Close()
	devsPerCore := make([][]nic.Port, cores)
	for c := range devsPerCore {
		devsPerCore[c] = []nic.Port{f.Queue(c)}
	}

	// Flow 0 is the elephant, flows 1..mice the mice. Only the source
	// port varies between flows; the flow id rides in the UDP payload,
	// because the NAT rewrites the source and every flow shares one
	// destination.
	frames := make([][]byte, mice+1)
	for id := range frames {
		sport := uint16(7)
		if id > 0 {
			sport = uint16(2000 + id - 1)
		}
		fr := netpkt.BuildUDP(make([]byte, 64), netpkt.UDPPacketSpec{
			SrcMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 1},
			DstMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 2},
			SrcIP:   netpkt.IPv4{10, 0, 0, 1},
			DstIP:   netpkt.IPv4{10, 0, 0, 2},
			SrcPort: sport,
			DstPort: 9,
		})
		binary.BigEndian.PutUint16(fr[netpkt.EtherHdrLen+netpkt.IPv4HdrLen+8:], uint16(id))
		frames[id] = fr
	}
	pick := func(i int) int {
		if i%2 == 0 {
			return 0
		}
		return 1 + (i/2)%mice
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	type served struct {
		d   *DUT
		err error
	}
	serveDone := make(chan served, 1)
	go func() {
		d, _, err := ServeWireGraphPerCore(ctx, g, Options{Model: click.XChange, Seed: 7},
			devsPerCore, 500*time.Millisecond, 0)
		serveDone <- served{d, err}
	}()

	// Capture: every output frame's external port, per flow.
	ports := make([]map[uint16]int, len(frames))
	for id := range ports {
		ports[id] = map[uint16]int{}
	}
	captured := make(chan int, total)
	go func() {
		buf := make([]byte, 2048)
		for {
			n, err := txFar.Read(buf)
			if err != nil {
				return
			}
			if n < 64 {
				continue
			}
			udp := buf[netpkt.EtherHdrLen+netpkt.IPv4HdrLen:]
			id := binary.BigEndian.Uint16(udp[8:])
			if int(id) < len(ports) {
				ports[id][binary.BigEndian.Uint16(udp[0:])]++
			}
			captured <- n
		}
	}()

	got := 0
	recv := func(until int, deadline time.Time) {
		for got < until {
			select {
			case <-captured:
				got++
			case <-time.After(time.Until(deadline)):
				t.Fatalf("captured %d of %d frames", got, until)
			}
		}
	}
	deadline := time.Now().Add(time.Minute)
	for i := 0; i < total; i++ {
		if i-got >= window {
			recv(i-window/2, deadline)
		}
		if _, err := rxFar.Write(frames[pick(i)]); err != nil {
			t.Fatal(err)
		}
	}
	recv(total, deadline)
	res := <-serveDone
	if res.err != nil {
		t.Fatalf("wire serve: %v", res.err)
	}
	for q := 0; q < cores; q++ {
		if f.Queue(q).RXStats().Delivered == 0 {
			t.Fatalf("queue %d served no frames: the flow set hashed onto one core", q)
		}
	}
	moved := 0
	for id, seen := range ports {
		if len(seen) != 1 {
			moved++
			t.Errorf("flow %d left under %d external ports: %v", id, len(seen), seen)
		}
	}
	if moved > 0 {
		t.Fatalf("%d of %d flows changed external port mid-flow", moved, len(frames))
	}
	if err := res.d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}
