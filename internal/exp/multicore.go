// Experiment: the per-core run-to-completion wire datapath. Not a paper
// figure — a scaling exhibit for this repository's multicore wire
// backend: N independent cores, each owning its own socket queue pair,
// buffer pool, and Click graph replica, with zero hot-path sharing. The
// table measures aggregate forwarding throughput from 1 to 4 cores over
// live socketpairs. Unlike the simulated exhibits, throughput here is
// wall-clock over real sockets, so absolute numbers (and the scaling
// ratio, on a starved host) vary with the machine.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/netpkt"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/testbed"
	"packetmill/internal/wire"
)

func init() {
	register("multicore", "per-core run-to-completion wire datapath: core scaling", multicoreExhibit)
}

// mcCoreCounts is the scaling axis: every core count the exhibit serves.
var mcCoreCounts = []int{1, 2, 4}

// mcFrame builds one minimum-size IPv4/UDP frame whose flow identity (and
// therefore RSS hash) is the source port.
func mcFrame(flow uint16) []byte {
	return netpkt.BuildUDP(make([]byte, 64), netpkt.UDPPacketSpec{
		SrcMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 1},
		DstMAC:  netpkt.MAC{0x02, 0, 0, 0, 0, 2},
		SrcIP:   netpkt.IPv4{10, 0, 0, 1},
		DstIP:   netpkt.IPv4{10, 0, 0, 2},
		SrcPort: flow,
		DstPort: 9,
	})
}

func multicoreExhibit(scale float64) *Plan {
	scaling := &Table{
		ID:    "multicore",
		Title: "run-to-completion wire datapath: aggregate throughput vs cores (EtherMirror, 64B)",
		Columns: []string{"cores", "frames", "elapsed_ms", "agg_kpps",
			"per_core_kpps", "speedup"},
	}
	p := &Plan{Tables: []*Table{scaling}}

	perCore := mcPerCore(scale)

	// One unit for every row: the rows time real work, and a sibling
	// unit on another worker would steal the cycles being timed.
	p.Unit(func(u *U) {
		var base float64
		for _, cores := range mcCoreCounts {
			elapsed, led, err := mcServe(cores, perCore, u.Seed)
			if err != nil {
				panic(fmt.Sprintf("multicore %d-core serve: %v", cores, err))
			}
			frames := led.TxWire
			kpps := float64(frames) / elapsed / 1e3
			if base == 0 {
				base = kpps
			}
			u.Add(fmt.Sprint(cores), fmt.Sprint(frames),
				f1(elapsed*1e3), f1(kpps), f1(kpps/float64(cores)), f2(kpps/base))
		}
	})
	return p
}

// mcPerCore is the frames each core's generator sends. The exhibit
// measures wall clock, so the floor is about syscall-noise amortization,
// not statistical confidence.
func mcPerCore(scale float64) int {
	return max(600, int(2500*scale))
}

// mcWindow bounds the frames a generator has sent but not yet seen come
// back: half the DUT's 512-slot RX ring, so the ring cannot overflow. An
// unbounded generator writes a frame faster than the DUT forwards one
// (a read syscall against modeled processing plus a write), so past 512
// frames it would lose whatever the ring could not hold.
const mcWindow = 256

// mcServe stands up `cores` independent loopback segments, serves the
// EtherMirror graph with one run-to-completion pipeline per core, and
// pushes perCore frames through each from concurrent generators. Returns
// the wall-clock serving time and the session's ledger, whose TxWire is
// the frames actually forwarded.
func mcServe(cores, perCore int, seed uint64) (elapsedSec float64, led *testbed.Result, err error) {
	gens := make([]*wire.Port, cores)
	devsPerCore := make([][]nic.Port, cores)
	defer func() {
		for _, g := range gens {
			if g != nil {
				g.Close()
			}
		}
		for _, devs := range devsPerCore {
			for _, d := range devs {
				d.(*wire.Port).Close()
			}
		}
	}()
	for c := 0; c < cores; c++ {
		gen, dut, lerr := wire.Loopback(
			wire.Config{Name: fmt.Sprintf("gen%d", c), RXRing: 512, TXRing: 512},
			wire.Config{Name: fmt.Sprintf("wire%d", c), Queue: c, RXRing: 512, TXRing: 512})
		if lerr != nil {
			return 0, nil, lerr
		}
		gens[c] = gen
		devsPerCore[c] = []nic.Port{dut}
		for i := 0; i < 512; i++ {
			if perr := gen.Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); perr != nil {
				return 0, nil, perr
			}
		}
	}
	g, err := click.Parse(nf.Mirror(0, 32))
	if err != nil {
		return 0, nil, err
	}
	// The DUT posts its RX rings before any generator sends: frames that
	// beat the first poll would otherwise overflow a ring that nothing
	// drains yet.
	d, engines, err := testbed.NewWireGraphPerCore(g,
		testbed.Options{Model: click.XChange, Seed: seed}, devsPerCore)
	if err != nil {
		return 0, nil, err
	}

	// 64 flows so the frames spread across RSS buckets like real traffic.
	flows := make([][]byte, 64)
	for i := range flows {
		flows[i] = mcFrame(uint16(1000 + i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	total := uint64(cores) * uint64(perCore)
	start := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < cores; c++ {
		// captured counts frames back at the generator's port; progress
		// wakes a generator waiting on a full window.
		var captured atomic.Int64
		progress := make(chan struct{}, 1)
		wg.Add(1)
		go func(c int) { // generator: at most mcWindow frames unforwarded
			defer wg.Done()
			tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
			reap := make([]*pktbuf.Packet, 1)
			for i := 0; i < perCore; i++ {
				for int64(i)-captured.Load() >= mcWindow {
					select {
					case <-progress:
					case <-stop:
						return
					}
				}
				tx.Reset(tx.OrigHeadroom())
				tx.SetFrame(flows[i%len(flows)])
				for !gens[c].Enqueue(nil, tx, 0) {
					runtime.Gosched()
				}
				for gens[c].Reap(0, reap) == 0 {
					runtime.Gosched()
				}
			}
		}(c)
		wg.Add(1)
		go func(c int) { // capture: recycle RX buffers so the DUT never stalls
			defer wg.Done()
			pkts := make([]*pktbuf.Packet, 32)
			descs := make([]nic.Descriptor, 32)
			bell := make(chan struct{}, 1)
			gens[c].SetDoorbell(bell)
			for {
				n := gens[c].Poll(nil, 0, len(pkts), pkts, descs)
				for i := 0; i < n; i++ {
					if gens[c].Post(pkts[i]) != nil {
						return
					}
				}
				if n > 0 {
					captured.Add(int64(n))
					select {
					case progress <- struct{}{}:
					default:
					}
					continue
				}
				select {
				case <-stop:
					return
				case <-bell:
				}
			}
		}(c)
	}
	// The budget counts engine moves, which the Click engine books once
	// per received frame, so the session ends once every frame is in;
	// the closing drain forwards any still queued.
	_, err = d.ServeWire(ctx, engines, 2*time.Second, total)
	elapsedSec = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	if err != nil {
		return 0, nil, err
	}
	return elapsedSec, d.WireResult(), nil
}
