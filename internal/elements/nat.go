// IPRewriter: the stateful NAPT of Appendix A.3 — "rewrites source IP
// addresses of outgoing packets ... stateful and uses the DPDK Cuckoo
// hash table" — rebuilt on the conntrack state plane so the flow table
// ages, bounds, and recycles instead of leaking until full.
package elements

import (
	"encoding/binary"
	"fmt"

	"packetmill/internal/click"
	"packetmill/internal/conntrack"
	"packetmill/internal/cuckoo"
	"packetmill/internal/flowlog"
	"packetmill/internal/machine"
	"packetmill/internal/netpkt"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
)

func init() {
	click.Register("IPRewriter", func() click.Element { return &IPRewriter{} })
}

// natFirstPort..natLastPort is the external port range, allocated in
// ascending order like the old monotonic allocator, then recycled FIFO
// as flows expire or are evicted.
const (
	natFirstPort = 1024
	natLastPort  = 65535
)

// portPool is a fixed ring of external ports: pop from the head for a
// new flow, recycle to the tail on reclaim. Deterministic order, zero
// allocation, survives churn indefinitely.
type portPool struct {
	ports []uint16
	head  int
	n     int
}

// newPortPool builds the pool of replica core of cores: it owns the
// ports p ≡ core (mod cores), so the replicas' pools are disjoint and two
// flows on different cores never leave under the same external port.
// n caps the pool (0 = every owned port). One core owns the whole range.
func newPortPool(n, core, cores int) *portPool {
	if cores < 1 {
		cores = 1
	}
	first := natFirstPort + (core-natFirstPort%cores+cores)%cores
	if owned := (natLastPort-first)/cores + 1; n <= 0 || n > owned {
		n = owned
	}
	p := &portPool{ports: make([]uint16, n), n: n}
	for i := range p.ports {
		p.ports[i] = uint16(first + i*cores)
	}
	return p
}

func (p *portPool) get() (uint16, bool) {
	if p.n == 0 {
		return 0, false
	}
	port := p.ports[p.head]
	p.head++
	if p.head == len(p.ports) {
		p.head = 0
	}
	p.n--
	return port, true
}

func (p *portPool) put(port uint16) {
	tail := p.head + p.n
	if tail >= len(p.ports) {
		tail -= len(p.ports)
	}
	p.ports[tail] = port
	p.n++
}

func (p *portPool) inUse() int { return len(p.ports) - p.n }

// IPRewriter performs source NAPT. Forward flows live in a conntrack
// shard (Entry.Value holds the external port) aged by the timer wheel;
// the reverse mapping (external 5-tuple → original src) lives in a
// plain cuckoo table kept in lockstep by the shard's reclaim hook, so
// expiry and eviction recycle the port and both mappings together.
// Each core's replica draws from its own slice of the port range (see
// newPortPool).
type IPRewriter struct {
	click.Base
	ExtIP     netpkt.IPv4
	TableSize int

	shard *conntrack.Shard
	// reverse is written on admission and deleted on reclaim but never
	// read: the element has no inbound input. It stays because it
	// carries the modeled cost of a NAT that keeps both mappings —
	// its inserts, deletes and cache footprint. Deleting it raises the
	// modeled nat-conntrack rate from 3.54 to 5.11 Mpps/core (+44%) and
	// fig10's 1-core PacketMill row past the paper's ≈69 Gbps, and the
	// bench gate does not flag improvements, so remove it only with a
	// recalibration.
	reverse *cuckoo.Table
	pool    *portPool
	flog    *flowlog.Core

	// cur is the core driving the current Push/Advance, so the reclaim
	// hook can charge its cuckoo deletes to the right core.
	cur *machine.Core

	// Flows counts distinct flows seen; Rewritten counts packets.
	Flows     uint64
	Rewritten uint64
	// PortsRecycled counts external ports returned to the pool by
	// expiry, eviction, or explicit delete.
	PortsRecycled uint64

	// evictedSinceTrace edge-detects pressure waves for the flight
	// recorder: one EvFlow event per burst, not per eviction.
	lastEvictions uint64

	out, dead, deadFull, deadNoPort pktbuf.Batch // per-element scratch, reset each push
}

// Class implements click.Element.
func (e *IPRewriter) Class() string { return "IPRewriter" }

// Configure implements click.Element.
// Args: EXTIP a.b.c.d [, CAPACITY n] [, PORTS n] [, ESTABLISHED_MS n]
// [, EMBRYONIC_MS n] [, CLOSING_MS n] [, UDP_MS n] [, PROTECT bool].
// PORTS bounds each core's external-port pool (default every port of
// the 1024..65535 range that the core owns) — small pools model
// carrier-grade NAT port budgets and the port-exhaustion scenario.
func (e *IPRewriter) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	e.TableSize = 65536
	kw, pos := click.KeywordArgs(args)
	ext := "192.168.100.1"
	if v, ok := kw["EXTIP"]; ok {
		ext = v
	} else if len(pos) > 0 {
		ext = pos[0]
	}
	var err error
	if e.ExtIP, err = netpkt.ParseIPv4(ext); err != nil {
		return err
	}
	if v, ok := kw["CAPACITY"]; ok {
		n, err := click.ParseInt(v)
		if err != nil {
			return err
		}
		e.TableSize = n
	}
	cfg := conntrack.Config{Capacity: e.TableSize}
	if err := parseTimeoutArgs(kw, &cfg); err != nil {
		return err
	}
	if v, ok := kw["PROTECT"]; ok {
		cfg.ProtectEstablished = v == "true" || v == "1"
	}
	ports := 0
	if v, ok := kw["PORTS"]; ok {
		n, err := click.ParseInt(v)
		if err != nil {
			return err
		}
		ports = n
	}
	// Flow table and reverse mappings live in hugepages like rte_hash.
	e.shard = conntrack.NewShard(cfg, bc.Huge, bc.Seed^0x4e4154)
	e.shard.OnReclaim = e.onReclaim
	e.reverse = cuckoo.New(e.TableSize, bc.Huge, bc.Seed^0x76657254)
	e.pool = newPortPool(ports, bc.Core, bc.Cores)
	bc.AllocState(64, 2)
	return nil
}

// parseTimeoutArgs fills conntrack timeout knobs shared by IPRewriter
// and ConnTracker. Values are milliseconds of simulated time.
func parseTimeoutArgs(kw map[string]string, cfg *conntrack.Config) error {
	for _, f := range []struct {
		key string
		dst *float64
	}{
		{"ESTABLISHED_MS", &cfg.Timeouts.Established},
		{"EMBRYONIC_MS", &cfg.Timeouts.Embryonic},
		{"CLOSING_MS", &cfg.Timeouts.Closing},
		{"UDP_MS", &cfg.Timeouts.Untracked},
	} {
		if v, ok := kw[f.key]; ok {
			n, err := click.ParseInt(v)
			if err != nil {
				return fmt.Errorf("%s: %w", f.key, err)
			}
			*f.dst = float64(n) * 1e6
		}
	}
	return nil
}

// onReclaim is the shard's reclaim hook: when a flow leaves, return its
// external port to the pool and drop the reverse mapping, keeping both
// tables in lockstep.
func (e *IPRewriter) onReclaim(ent *conntrack.Entry, cause conntrack.Cause) {
	e.flog.FlowEndNAT(ent, cause, e.ExtIP.Uint32())
	port := uint16(ent.Value)
	e.reverse.Delete(e.cur, cuckoo.Key{
		SrcIP: ent.Key.DstIP, DstIP: e.ExtIP.Uint32(),
		SrcPort: ent.Key.DstPort, DstPort: port, Proto: ent.Key.Proto,
	})
	e.pool.put(port)
	e.PortsRecycled++
}

// Push implements click.Element.
func (e *IPRewriter) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	core := ec.Core
	e.cur = core
	e.shard.Advance(core, ec.Now)
	out, dead, deadFull, deadNoPort := &e.out, &e.dead, &e.deadFull, &e.deadNoPort
	out.Reset()
	dead.Reset()
	deadFull.Reset()
	deadNoPort.Reset()
	b.ForEach(core, func(p *pktbuf.Packet) bool {
		ipOff := netpkt.EtherHdrLen
		l4, proto, _, ok := ipHeaderAt(ec, p, ipOff)
		if !ok || (proto != netpkt.ProtoTCP && proto != netpkt.ProtoUDP) {
			// Non-L4 traffic passes through unmodified.
			core.Compute(10)
			e.flog.Untracked(uint64(p.Len()))
			out.Append(core, p)
			return true
		}
		if p.Len() < l4+4 {
			e.flog.Refused(stats.DropEngine, uint64(p.Len()), ec.Now)
			dead.Append(core, p)
			return true
		}
		hdr := p.Load(core, ipOff, netpkt.IPv4HdrLen)
		ports := p.Load(core, l4, 4)
		key := cuckoo.Key{
			SrcIP:   binary.BigEndian.Uint32(hdr[12:16]),
			DstIP:   binary.BigEndian.Uint32(hdr[16:20]),
			SrcPort: binary.BigEndian.Uint16(ports[0:2]),
			DstPort: binary.BigEndian.Uint16(ports[2:4]),
			Proto:   proto,
		}
		var tcpFlags uint8
		if proto == netpkt.ProtoTCP && p.Len() >= l4+14 {
			tcpFlags = p.Load(core, l4+13, 1)[0]
		}
		ent, hit := e.shard.Update(core, key, proto, tcpFlags, ec.Now)
		if !hit {
			// New flow: allocate a port, then admit. Admission failure
			// hands the port straight back.
			extPort, ok := e.pool.get()
			if !ok {
				e.flog.Refused(stats.DropFlowTableNoPort, uint64(p.Len()), ec.Now)
				deadNoPort.Append(core, p)
				return true
			}
			e.Inst.StoreState(ec, 0, 8) // port allocator state
			var v conntrack.Verdict
			ent, v = e.shard.Admit(core, key, proto, tcpFlags, ec.Now, uint64(extPort))
			if v != conntrack.VerdictNew {
				e.pool.put(extPort)
				e.flog.Refused(stats.DropFlowTableFull, uint64(p.Len()), ec.Now)
				deadFull.Append(core, p)
				return true
			}
			reverse := cuckoo.Key{
				SrcIP: key.DstIP, DstIP: e.ExtIP.Uint32(),
				SrcPort: key.DstPort, DstPort: extPort, Proto: proto,
			}
			if err := e.reverse.Insert(core, reverse, uint64(key.SrcIP)<<16|uint64(key.SrcPort)); err != nil {
				// Reverse index refused: undo the admission (the
				// reclaim hook recycles the port) and refuse the flow.
				e.shard.Delete(core, key)
				e.flog.Refused(stats.DropFlowTableFull, uint64(p.Len()), ec.Now)
				deadFull.Append(core, p)
				return true
			}
			e.Flows++
		}
		ent.Bytes += uint64(p.Len())
		extPort := uint16(ent.Value)
		// Rewrite source IP and port, patching both checksums
		// incrementally (RFC 1624 twice: IP header + pseudo-header).
		oldIPHi := binary.BigEndian.Uint16(hdr[12:14])
		oldIPLo := binary.BigEndian.Uint16(hdr[14:16])
		wr := p.Store(core, ipOff+12, 4)
		copy(wr, e.ExtIP[:])
		ck := binary.BigEndian.Uint16(hdr[10:12])
		ck = netpkt.IncrementalChecksumUpdate16(ck, oldIPHi, binary.BigEndian.Uint16(e.ExtIP[0:2]))
		ck = netpkt.IncrementalChecksumUpdate16(ck, oldIPLo, binary.BigEndian.Uint16(e.ExtIP[2:4]))
		ckb := p.Store(core, ipOff+10, 2)
		binary.BigEndian.PutUint16(ckb, ck)
		pw := p.Store(core, l4, 2)
		binary.BigEndian.PutUint16(pw, extPort)
		core.Compute(60)
		e.Rewritten++
		out.Append(core, p)
		return true
	})
	if !deadNoPort.Empty() {
		ec.Tel.Trace().Flow("nat-port-pool-dry")
	}
	if st := e.shard.StatsSnapshot(); st.EvictionsTotal() > e.lastEvictions {
		e.lastEvictions = st.EvictionsTotal()
		ec.Tel.Trace().Flow("nat-flow-evicted")
	}
	ec.Rt.Kill(ec, dead)
	ec.Rt.KillReason(ec, deadNoPort, stats.DropFlowTableNoPort)
	ec.Rt.KillReason(ec, deadFull, stats.DropFlowTableFull)
	e.cur = nil
	if !out.Empty() {
		e.Inst.Output(ec, 0, out)
	}
}

// BindFlowLog implements flowlog.Hookable: flow endings carry their NAT
// translation into core fc's flow log, refusals (port-pool dry, table
// full) are booked by reason, and the log joins live translations at
// export time. The shard's keys are as-seen 5-tuples (not canonical),
// and departing frames carry the rewritten source, so the depart-hook
// latency sampler registers the table but rarely hits — misses are
// counted, not chased.
func (e *IPRewriter) BindFlowLog(fc *flowlog.Core) {
	e.flog = fc
	fc.BindShard(e.shard, false, e.ExtIP.Uint32())
}

// FlowTableEntries reports current flow-table occupancy — the gauge the
// leak satellite watches.
func (e *IPRewriter) FlowTableEntries() int { return e.shard.Len() }

// FlowReport implements the telemetry flow-table reporting seam; the
// collector fills Core and Element.
func (e *IPRewriter) FlowReport() telemetry.ConntrackReport {
	r := conntrackReportFromShard(e.shard)
	r.PortsInUse = uint64(e.pool.inUse())
	r.PortsRecycled = e.PortsRecycled
	return r
}

// conntrackReportFromShard maps a shard's ledger onto the report shape
// shared by IPRewriter and ConnTracker.
func conntrackReportFromShard(s *conntrack.Shard) telemetry.ConntrackReport {
	st := s.StatsSnapshot()
	r := telemetry.ConntrackReport{
		FlowTableEntries: uint64(s.Len()),
		Capacity:         uint64(s.Capacity()),
		Insertions:       st.Insertions,
		Lookups:          st.Lookups,
		Hits:             st.Hits,
		Expirations:      st.Expirations,
		RefusedFull:      st.RefusedFull,
		RefusedInvalid:   st.RefusedInvalid,
		WheelLagUS:       st.MaxWheelLagNS / 1e3,
	}
	if st.EvictionsTotal() > 0 {
		r.Evictions = make(map[string]uint64, conntrack.NumClasses)
		for c := conntrack.ClassEmbryonic; c < conntrack.NumClasses; c++ {
			if n := st.Evictions[c]; n > 0 {
				r.Evictions[c.String()] = n
			}
		}
	}
	return r
}
