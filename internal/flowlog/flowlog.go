// The flow-record pipeline: per-core, zero-alloc collection of flow
// lifecycle events, joined with the conntrack ledgers into the Records
// a run exports. Stateful elements bind a per-core Core and call its
// hooks from the hot path — flow endings land in a preallocated ring,
// refusals and untracked traffic in per-reason counters, and the TX
// depart hook samples per-flow latency back into the live table entry.
// Nothing on the hot path allocates; the join with live flows, external
// drop ledgers, and the wire-TX residue happens once, at Records time.
//
// The model is retina's packetparser→enricher→hubble chain collapsed
// into the run-to-completion core: the "parser" is the element that
// already holds the flow entry, the "enricher" is the end-of-run join,
// and the export surface is the existing /metrics//report//flows
// exporter.
package flowlog

import (
	"sort"
	"sync"

	"packetmill/internal/conntrack"
	"packetmill/internal/stats"
)

// Hookable is the seam stateful elements implement so the testbed can
// discover them per core and arm flow logging.
type Hookable interface {
	BindFlowLog(*Core)
}

// Config sizes the collector.
type Config struct {
	// RingSize is the per-core closed-flow ring capacity (default
	// 4096). Overflow rolls the oldest records into per-verdict
	// aggregates, so counters stay exact even when records are lost.
	RingSize int
	// SampleEvery is the TX latency sampling period in packets
	// (default 8).
	SampleEvery int
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 4096
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 8
	}
	return c
}

// Collector owns the per-core flow logs of one run. Cores are created
// lazily at build time; the hot path never touches the collector, only
// its per-core Cores.
type Collector struct {
	cfg   Config
	mu    sync.Mutex
	cores []*Core
}

// New builds a collector.
func New(cfg Config) *Collector {
	return &Collector{cfg: cfg.withDefaults()}
}

// Core returns core i's flow log, creating it on first use. Setup-time
// only; returns nil on a nil collector so call sites stay unconditional.
func (c *Collector) Core(i int) *Core {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.cores) <= i {
		c.cores = append(c.cores, nil)
	}
	if c.cores[i] == nil {
		c.cores[i] = &Core{
			id:          i,
			ring:        make([]Record, c.cfg.RingSize),
			sampleEvery: c.cfg.SampleEvery,
		}
	}
	return c.cores[i]
}

// boundShard is one stateful element's table registered with a core.
type boundShard struct {
	s *conntrack.Shard
	// canonical: the table is keyed by conntrack.Canonical 5-tuples
	// (ConnTracker); false for as-seen keys (IPRewriter).
	canonical bool
	// natIP tags the table's flows with their NAT external IP; the
	// external port travels in Entry.Value.
	natIP uint32
}

// Core is one core's flow log. Single-writer: only the owning core's
// datapath goroutine touches it, so no field is synchronized — readers
// (Records, snapshots) run while cores are quiescent, exactly like the
// rest of the per-core telemetry.
type Core struct {
	id   int
	ring []Record
	next int
	// emitted counts closed-flow records ever written; kept is
	// min(emitted, len(ring)).
	emitted uint64

	// Exact aggregates over closed flows, by verdict — immune to ring
	// overflow.
	endFlows [NumVerdicts]uint64
	endPkts  [NumVerdicts]uint64
	endBytes [NumVerdicts]uint64

	// Ring-overflow roll-up: records overwritten before export.
	ovFlows [NumVerdicts]uint64
	ovPkts  [NumVerdicts]uint64
	ovBytes [NumVerdicts]uint64

	// Element-refused packets by reason (flow-table refusals and other
	// element kills observed at the hook).
	refPkts  [stats.NumDropReasons]uint64
	refBytes [stats.NumDropReasons]uint64
	refFirst [stats.NumDropReasons]float64
	refLast  [stats.NumDropReasons]float64

	// Traffic forwarded outside any flow table's jurisdiction (non-IP
	// passthrough).
	untrackedPkts  uint64
	untrackedBytes uint64

	// TX latency sampler.
	sampleEvery int
	tick        int
	shards      []boundShard
	latSampled  uint64
	latMisses   uint64
}

// BindShard registers a stateful element's table with this core's log:
// its live flows join the export, and the depart hook samples latency
// into its entries. Setup-time only; nil-safe.
func (c *Core) BindShard(s *conntrack.Shard, canonical bool, natIP uint32) {
	if c == nil || s == nil {
		return
	}
	c.shards = append(c.shards, boundShard{s: s, canonical: canonical, natIP: natIP})
}

// FlowEnd records a flow leaving a ConnTracker table. Hot path:
// nil-safe, allocation-free.
func (c *Core) FlowEnd(e *conntrack.Entry, cause conntrack.Cause) {
	if c == nil {
		return
	}
	c.record(e, cause, 0, 0)
}

// FlowEndNAT is FlowEnd for NAT-owned flows, tagging the record with
// the translation (external IP + the port in Entry.Value).
func (c *Core) FlowEndNAT(e *conntrack.Entry, cause conntrack.Cause, natIP uint32) {
	if c == nil {
		return
	}
	c.record(e, cause, natIP, uint16(e.Value))
}

func (c *Core) record(e *conntrack.Entry, cause conntrack.Cause, natIP uint32, natPort uint16) {
	var v Verdict
	var end EndCause
	switch cause {
	case conntrack.CauseEvicted:
		v, end = VerdictEvicted, EndEvicted
	case conntrack.CauseExpired:
		v, end = VerdictForwarded, EndExpired
	default:
		v, end = VerdictForwarded, EndDeleted
	}
	if c.emitted >= uint64(len(c.ring)) {
		old := &c.ring[c.next]
		c.ovFlows[old.Verdict]++
		c.ovPkts[old.Verdict] += old.Packets
		c.ovBytes[old.Verdict] += old.Bytes
	}
	r := &c.ring[c.next]
	c.next++
	if c.next == len(c.ring) {
		c.next = 0
	}
	c.emitted++
	*r = Record{
		Core: int32(c.id), Key: e.Key, State: e.State, Verdict: v, End: end,
		Reason:  stats.NumDropReasons,
		Packets: e.Packets, Bytes: e.Bytes,
		FirstNS: e.Created, LastNS: e.Last,
		NATIP: natIP, NATPort: natPort,
		LatSamples: e.LatSamples, LatSumNS: e.LatSumNS, LatMaxNS: e.LatMaxNS,
	}
	c.endFlows[v]++
	c.endPkts[v] += e.Packets
	c.endBytes[v] += e.Bytes
}

// Refused books a packet an element killed (flow-table refusal or other
// element-level drop), under its drop reason. Hot path: nil-safe,
// allocation-free. The reason must also be booked in the run's drop
// ledger by the element (KillReason does) — Records subtracts these
// from the external ledger so nothing double-counts.
func (c *Core) Refused(r stats.DropReason, bytes uint64, nowNS float64) {
	if c == nil || r >= stats.NumDropReasons {
		return
	}
	if c.refPkts[r] == 0 || nowNS < c.refFirst[r] {
		c.refFirst[r] = nowNS
	}
	if nowNS > c.refLast[r] {
		c.refLast[r] = nowNS
	}
	c.refPkts[r]++
	c.refBytes[r] += bytes
}

// Untracked books a packet forwarded outside any flow table's
// jurisdiction (non-IP passthrough). Hot path: nil-safe.
func (c *Core) Untracked(bytes uint64) {
	if c == nil {
		return
	}
	c.untrackedPkts++
	c.untrackedBytes += bytes
}

// NoteDepart is the TX-side latency hook: every sampleEvery-th
// departing frame is parsed back to its flow key and the latency folded
// into the live table entry. Hot path: nil-safe, allocation-free;
// misses (flow already gone, NAT-rewritten tuple) are counted, not
// chased.
func (c *Core) NoteDepart(frame []byte, latNS float64) {
	if c == nil || len(c.shards) == 0 {
		return
	}
	c.tick++
	if c.tick < c.sampleEvery {
		return
	}
	c.tick = 0
	k, ok := KeyFromFrame(frame)
	if !ok {
		return
	}
	for i := range c.shards {
		b := &c.shards[i]
		kk := k
		if b.canonical {
			kk, _ = conntrack.Canonical(k)
		}
		if e, hit := b.s.Lookup(nil, kk); hit {
			e.LatSumNS += latNS
			if latNS > e.LatMaxNS {
				e.LatMaxNS = latNS
			}
			e.LatSamples++
			c.latSampled++
			return
		}
	}
	c.latMisses++
}

// RecordsLost reports closed-flow records rolled into overflow
// aggregates because the ring wrapped.
func (c *Collector) RecordsLost() uint64 {
	if c == nil {
		return 0
	}
	var lost uint64
	for _, co := range c.cores {
		if co != nil && co.emitted > uint64(len(co.ring)) {
			lost += co.emitted - uint64(len(co.ring))
		}
	}
	return lost
}

// LatencySampled and LatencyMisses report the depart hook's hit/miss
// tallies across cores.
func (c *Collector) LatencySampled() (sampled, misses uint64) {
	if c == nil {
		return 0, 0
	}
	for _, co := range c.cores {
		if co != nil {
			sampled += co.latSampled
			misses += co.latMisses
		}
	}
	return sampled, misses
}

// Records cuts the run's flow records: ring contents, live flows from
// every bound table, overflow and refusal roll-ups, the drop-ledger
// remainder (losses booked outside any element hook — NIC rings,
// sheds, faults), and an unattributed-forwarded residue covering wire
// TX that crossed no tracking element. drops is the run's merged drop
// ledger; txWire the wire-departed frame count. The result reconciles:
// TX-side packets sum to txWire and drop-side packets to drops.Total()
// whenever the element hooks and ledgers agree. Read-only — safe to
// call repeatedly on a quiescent or snapshot-gated run.
func (c *Collector) Records(drops *stats.DropCounters, txWire uint64) []Record {
	if c == nil {
		return nil
	}
	var out []Record
	var internal stats.DropCounters
	var txAttr uint64
	for _, co := range c.cores {
		if co == nil {
			continue
		}
		n := int(co.emitted)
		if n > len(co.ring) {
			n = len(co.ring)
		}
		start := (co.next - n + len(co.ring)) % len(co.ring)
		for i := 0; i < n; i++ {
			out = append(out, co.ring[(start+i)%len(co.ring)])
		}
		txAttr += co.endPkts[VerdictForwarded] + co.endPkts[VerdictEvicted]
		// Ring-overflow roll-ups: overwritten records surface as one
		// aggregate per verdict, so per-record packet sums still equal
		// the exact end-of-flow counters.
		for v := Verdict(0); v < NumVerdicts; v++ {
			if co.ovFlows[v] > 0 {
				out = append(out, Record{
					Core: int32(co.id), Verdict: v, End: EndAggregate,
					Reason: stats.NumDropReasons, Aggregate: true,
					Packets: co.ovPkts[v], Bytes: co.ovBytes[v],
				})
			}
		}
		for i := range co.shards {
			b := co.shards[i]
			b.s.ForEachLive(func(e *conntrack.Entry) bool {
				rec := Record{
					Core: int32(co.id), Key: e.Key, State: e.State,
					Verdict: VerdictForwarded, End: EndActive,
					Reason:  stats.NumDropReasons,
					Packets: e.Packets, Bytes: e.Bytes,
					FirstNS: e.Created, LastNS: e.Last,
					LatSamples: e.LatSamples, LatSumNS: e.LatSumNS,
					LatMaxNS: e.LatMaxNS,
				}
				if b.natIP != 0 {
					rec.NATIP = b.natIP
					rec.NATPort = uint16(e.Value)
				}
				out = append(out, rec)
				txAttr += e.Packets
				return true
			})
		}
		if co.untrackedPkts > 0 {
			out = append(out, Record{
				Core: int32(co.id), Verdict: VerdictForwarded,
				End: EndAggregate, Reason: stats.NumDropReasons,
				Aggregate: true,
				Packets:   co.untrackedPkts, Bytes: co.untrackedBytes,
			})
			txAttr += co.untrackedPkts
		}
		for r := stats.DropReason(0); r < stats.NumDropReasons; r++ {
			if co.refPkts[r] == 0 {
				continue
			}
			out = append(out, Record{
				Core: int32(co.id), Verdict: VerdictForReason(r),
				End: EndAggregate, Reason: r, Aggregate: true,
				Packets: co.refPkts[r], Bytes: co.refBytes[r],
				FirstNS: co.refFirst[r], LastNS: co.refLast[r],
			})
			internal.Add(r, co.refPkts[r])
		}
	}
	// The drop ledger's remainder: losses booked by layers with no flow
	// hook (NIC rings, overload sheds, faults, TX congestion).
	if drops != nil {
		for r := stats.DropReason(0); r < stats.NumDropReasons; r++ {
			d := drops.Get(r)
			if in := internal.Get(r); d > in {
				out = append(out, Record{
					Core: -1, Verdict: VerdictForReason(r),
					End: EndAggregate, Reason: r, Aggregate: true,
					Packets: d - in,
				})
			}
		}
	}
	// Wire TX no flow record accounts for: traffic that crossed no
	// tracking element at all (plain forwarders).
	if txWire > txAttr {
		out = append(out, Record{
			Core: -1, Verdict: VerdictForwarded, End: EndAggregate,
			Reason: stats.NumDropReasons, Aggregate: true,
			Packets: txWire - txAttr,
		})
	}
	sortRecords(out)
	return out
}

// sortRecords orders deterministically: per-flow records by (first
// seen, core, key), aggregates last by (core, verdict, reason).
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if a.Aggregate != b.Aggregate {
			return !a.Aggregate
		}
		if a.Aggregate {
			if a.Core != b.Core {
				return a.Core < b.Core
			}
			if a.Verdict != b.Verdict {
				return a.Verdict < b.Verdict
			}
			return a.Reason < b.Reason
		}
		if a.FirstNS != b.FirstNS {
			return a.FirstNS < b.FirstNS
		}
		if a.Core != b.Core {
			return a.Core < b.Core
		}
		return keyLess(a.Key, b.Key)
	})
}

func keyLess(a, b conntrack.Key) bool {
	if a.SrcIP != b.SrcIP {
		return a.SrcIP < b.SrcIP
	}
	if a.DstIP != b.DstIP {
		return a.DstIP < b.DstIP
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
}

// Summary is the roll-up of one record set.
type Summary struct {
	Records uint64
	// Flows/Packets/Bytes by verdict index.
	Flows   [NumVerdicts]uint64
	Packets [NumVerdicts]uint64
	Bytes   [NumVerdicts]uint64
	// TxSidePackets/DropSidePackets split the set along the
	// conservation invariant.
	TxSidePackets   uint64
	DropSidePackets uint64
	// Unattributed counts forwarded packets carried only by aggregate
	// records (untracked passthrough + the wire residue) — zero when
	// every TX'd packet crossed a tracking element.
	Unattributed uint64
	// LatSamples sums sampled latency observations across records.
	LatSamples uint64
}

// Summarize rolls a record set up.
func Summarize(recs []Record) Summary {
	var s Summary
	s.Records = uint64(len(recs))
	for i := range recs {
		r := &recs[i]
		if r.Verdict < NumVerdicts {
			s.Flows[r.Verdict]++
			s.Packets[r.Verdict] += r.Packets
			s.Bytes[r.Verdict] += r.Bytes
		}
		if r.TxSide() {
			s.TxSidePackets += r.Packets
			if r.Aggregate {
				s.Unattributed += r.Packets
			}
		} else {
			s.DropSidePackets += r.Packets
		}
		s.LatSamples += uint64(r.LatSamples)
	}
	return s
}

// Reconciliation checks a record set against the run's conservation
// ledgers.
type Reconciliation struct {
	Offered, TxWire, Drops uint64
	TxSide, DropSide       uint64
	Exact                  bool
}

// Reconcile verifies that the record set's packet attribution matches
// the run: TX-side records sum to the wire-departed count, drop-side
// records to the drop ledger, and conservation holds end to end.
func Reconcile(recs []Record, offered, txWire uint64, drops *stats.DropCounters) Reconciliation {
	s := Summarize(recs)
	rec := Reconciliation{
		Offered: offered, TxWire: txWire,
		TxSide: s.TxSidePackets, DropSide: s.DropSidePackets,
	}
	if drops != nil {
		rec.Drops = drops.Total()
	}
	rec.Exact = rec.TxSide == txWire && rec.DropSide == rec.Drops &&
		offered == txWire+rec.Drops
	return rec
}

// TopByBytes returns the k largest per-flow records by byte count —
// the export surface's top-k families and the diagnosis engine's
// elephant detector both draw from it.
func TopByBytes(recs []Record, k int) []Record {
	var flows []Record
	for i := range recs {
		if !recs[i].Aggregate {
			flows = append(flows, recs[i])
		}
	}
	sort.SliceStable(flows, func(i, j int) bool {
		if flows[i].Bytes != flows[j].Bytes {
			return flows[i].Bytes > flows[j].Bytes
		}
		return keyLess(flows[i].Key, flows[j].Key)
	})
	if len(flows) > k {
		flows = flows[:k]
	}
	return flows
}
