package testbed

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/conntrack"
	"packetmill/internal/flowlog"
	"packetmill/internal/netpkt"
	"packetmill/internal/nic"
	"packetmill/internal/stats"
	"packetmill/internal/trafficgen"
	"packetmill/internal/wire"
)

// TestFanoutNATPortsStable: software RSS must keep every flow on one
// core, because that core's NAT replica alone holds the flow's mapping.
// A 2-core fanout serves a NAT under one elephant flow carrying half the
// load plus 64 mice; every flow must leave under exactly one external
// port. A demux that moved a flow to the other core mid-flow would hand
// it to a replica with no mapping, which picks a fresh port. And no two
// flows may leave under the same port: they share one destination, so
// on the wire they would be one flow — the replicas' port pools must be
// disjoint.
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
		d, engines, err := NewWireGraphPerCore(g, Options{Model: click.XChange, Seed: 7}, devsPerCore)
		if err == nil {
			_, err = d.ServeWire(ctx, engines, 500*time.Millisecond, 0)
		}
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
	holder := map[uint16]int{}
	shared := 0
	for id, seen := range ports {
		for port := range seen {
			if other, ok := holder[port]; ok {
				shared++
				t.Errorf("flows %d and %d both leave under external port %d", other, id, port)
			}
			holder[port] = id
		}
	}
	if shared > 0 {
		t.Fatalf("%d external ports held by two flows to one destination", shared)
	}
	if err := res.d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestFanoutSimOracle is TestWireLoopback at N cores: a recorded campus
// trace goes through the milled NAT router once on the N-core simulated
// testbed (the oracle) and once over a wire.Fanout served by N wire
// cores. The NAT replica on core c hands out only ports ≡ c (mod N), so
// a flow the fanout files on another core than the simulated adapter
// would leaves under a different port and the output bytes differ.
// Cross-core interleaving on the shared TX socket is not deterministic,
// so the outputs must match as a byte-identical multiset, and each
// output flow's frames (keyed by the output 5-tuple) in order.
func TestFanoutSimOracle(t *testing.T) {
	g := milledNATRouter(t).Graph
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) { runFanoutSimOracle(t, g, n) })
	}
}

func runFanoutSimOracle(t *testing.T, g *click.Graph, cores int) {
	const nFrames = 400
	trace := trafficgen.Record(trafficgen.NewCampus(trafficgen.Config{
		Seed: 7, Flows: 64, RateGbps: 1, Count: nFrames}), nFrames)

	var want [][]byte
	oracle, err := RunGraph(g, Options{
		Model: click.XChange, Cores: cores, NICs: 1, Seed: 7,
		RateGbps: 1, Packets: nFrames,
		Traffic: func(int, trafficgen.Config) trafficgen.Source { return trace.Replay(1) },
		Tap: func(frame []byte, _ float64) {
			want = append(want, append([]byte(nil), frame...))
		},
	})
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	if capacity := oracle.Dropped - oracle.DropsByReason.Get(stats.DropEngine); capacity != 0 {
		t.Fatalf("oracle run lost %d packets to capacity (%v); the comparison needs a lossless reference",
			capacity, oracle.DropsByReason.Map())
	}
	if len(want) == 0 {
		t.Fatal("oracle run produced no output frames")
	}

	// The wire: one shared RX socket demuxed into N queues, every queue
	// writing the shared TX socket. Each queue's ring holds the whole
	// trace, so the sender need not pace.
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

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type served struct {
		d   *DUT
		err error
	}
	serveDone := make(chan served, 1)
	go func() {
		d, engines, err := NewWireGraphPerCore(g, Options{Model: click.XChange, Seed: 7}, devsPerCore)
		if err == nil {
			_, err = d.ServeWire(ctx, engines, 300*time.Millisecond, 0)
		}
		serveDone <- served{d, err}
	}()
	// Sized past every expected frame, so the reader never blocks on a
	// send; it exits when txFar closes.
	captured := make(chan []byte, len(want)+64)
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := txFar.Read(buf)
			if err != nil {
				return
			}
			captured <- append([]byte(nil), buf[:n]...)
		}
	}()
	src := trace.Replay(1)
	for {
		frame, _, ok := src.Next()
		if !ok {
			break
		}
		if _, err := rxFar.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	deadline := time.After(30 * time.Second)
	for len(got) < len(want) {
		select {
		case fr := <-captured:
			got = append(got, fr)
		case <-deadline:
			t.Fatalf("captured %d of %d frames", len(got), len(want))
		}
	}
	res := <-serveDone
	if res.err != nil {
		t.Fatalf("wire serve: %v", res.err)
	}
	if err := res.d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if led := res.d.WireResult(); led.Offered != nFrames || led.TxWire != uint64(len(want)) {
		t.Fatalf("wire ledger: offered %d, tx %d, want %d and %d (drops %s)",
			led.Offered, led.TxWire, nFrames, len(want), led.DropsByReason.String())
	}

	sorted := func(frames [][]byte) [][]byte {
		s := append([][]byte(nil), frames...)
		sort.Slice(s, func(i, j int) bool { return bytes.Compare(s[i], s[j]) < 0 })
		return s
	}
	sw, sg := sorted(want), sorted(got)
	differ := 0
	for i := range sw {
		if !bytes.Equal(sw[i], sg[i]) {
			differ++
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d output frames are not in the oracle's multiset", differ, len(want))
	}
	byFlow := func(frames [][]byte) map[conntrack.Key][][]byte {
		m := map[conntrack.Key][][]byte{}
		for _, fr := range frames {
			if k, ok := flowlog.KeyFromFrame(fr); ok {
				m[k] = append(m[k], fr)
			}
		}
		return m
	}
	wf, gf := byFlow(want), byFlow(got)
	for k, ws := range wf {
		gs := gf[k]
		if len(gs) != len(ws) {
			t.Errorf("flow %s: %d frames on the wire, %d in the oracle", flowlog.FormatKey(k), len(gs), len(ws))
			continue
		}
		for i := range ws {
			if !bytes.Equal(ws[i], gs[i]) {
				t.Errorf("flow %s: frame %d of %d differs from the oracle", flowlog.FormatKey(k), i, len(ws))
				break
			}
		}
	}
	if len(gf) != len(wf) {
		t.Errorf("%d output flows on the wire, %d in the oracle", len(gf), len(wf))
	}
}
