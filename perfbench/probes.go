package main

import (
	"time"

	"packetmill/internal/cache"
	"packetmill/internal/conntrack"
	"packetmill/internal/dpdk"
	"packetmill/internal/flowlog"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
	"packetmill/internal/nic"
	"packetmill/internal/trafficgen"
)

// probeFrames is how many of the workload's frames the layer probes
// replay.
const probeFrames = 100000

// probeRounds is how many times each probe replays its frames; the
// probe reports the median round.
const probeRounds = 3

// probeFrame keeps what the probes need of one generated frame.
type probeFrame struct {
	size    int
	ns      float64
	key     conntrack.Key
	tcpF    uint8
	tracked bool // an IPv4 frame with a flow key
}

// sourceFrames draws n frames from the workload's source, seeded as the
// testbed seeds the first NIC's generator.
func sourceFrames(s simSpec, seed uint64, n int) []probeFrame {
	src := s.source(trafficgen.Config{Seed: seed + 100, RateGbps: s.rateGbps, Count: n})
	out := make([]probeFrame, 0, n)
	for {
		f, ns, ok := src.Next()
		if !ok {
			return out
		}
		pf := probeFrame{size: len(f), ns: ns}
		if k, ok := flowlog.KeyFromFrame(f); ok {
			pf.key, pf.tracked = k, true
			if k.Proto == netpkt.ProtoTCP {
				pf.tcpF = tcpFlags(f)
			}
		}
		out = append(out, pf)
	}
}

// tcpFlags reads the flags byte of an untagged IPv4/TCP frame.
func tcpFlags(f []byte) uint8 {
	ip := f[netpkt.EtherHdrLen:]
	off := netpkt.EtherHdrLen + int(ip[0]&0x0f)*4 + 13
	if off >= len(f) {
		return 0
	}
	return f[off]
}

// cacheAccessNS times cache.Hierarchy.Access over the DUT's buffer
// footprint — an RX ring of packet buffers plus the descriptor pool —
// touching each frame's bytes where the NIC would have written them.
func cacheAccessNS(frames []probeFrame) float64 {
	const stride = dpdk.DefaultHeadroom + dpdk.DefaultDataRoom
	nbuf := nic.DefaultConfig("probe").RXRingSize + 64
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		h := cache.NewSystem(cache.DefaultSystemConfig()).NewCore()
		t := time.Now()
		for i, f := range frames {
			addr := memsim.HugeBase + memsim.Addr((i%nbuf)*stride+dpdk.DefaultHeadroom)
			h.Access(addr, uint64(f.size), false)
		}
		rounds = append(rounds, float64(time.Since(t).Nanoseconds())/float64(len(frames)))
	}
	return median(rounds)
}

// conntrackTrackNS replays the frames' flow keys through a fresh
// NAT-sized conntrack.Shard and times Shard.Track per key.
func conntrackTrackNS(frames []probeFrame, seed uint64) float64 {
	var rounds []float64
	for r := 0; r < probeRounds; r++ {
		arena := memsim.NewArena("perfbench-conntrack", memsim.StaticBase, 1<<30)
		_, c := machine.Default(2.3)
		sh := conntrack.NewShard(conntrack.Config{Capacity: 65536}, arena, seed)
		n := 0
		t := time.Now()
		for _, f := range frames {
			if !f.tracked {
				continue
			}
			sh.Track(c, f.key, f.key.Proto, f.tcpF, f.ns, 0)
			n++
		}
		if n > 0 {
			rounds = append(rounds, float64(time.Since(t).Nanoseconds())/float64(n))
		}
	}
	return median(rounds)
}
