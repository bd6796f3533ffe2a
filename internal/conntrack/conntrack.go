// Package conntrack is the million-flow state plane: per-core-sharded
// connection tracking built for PacketMill's run-to-completion model.
// Each core owns one Shard — a preallocated entry slab indexed by a
// cuckoo hash table (the same rte_hash-style table the NAT already
// uses), aged by a hierarchical timer wheel, and bounded by a TCP-state-
// aware eviction policy. Nothing in the per-packet path allocates,
// takes a lock, or shares a cache line with another core: the slab, the
// wheel, and the per-class activity lists are all index-linked fixed
// storage, so a shard holds a million concurrent flows at steady state
// with 0 allocs/packet.
//
// Under pressure the shard does not grow: a new flow displaces the
// oldest resident of the cheapest eviction class (embryonic half-opens
// first, established connections last), and only when nothing evictable
// remains is the packet refused — booked under the DropFlowTable*
// taxonomy so the conservation invariant (offered == tx + drops) still
// balances through a SYN flood.
package conntrack

import (
	"fmt"

	"packetmill/internal/cuckoo"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
)

// Key is the flow 5-tuple, shared with the cuckoo table.
type Key = cuckoo.Key

// Canonical orders a bidirectional 5-tuple so both directions of a
// conversation map to one entry; swapped reports whether this packet
// traveled the reverse (responder→initiator) direction.
func Canonical(k Key) (canon Key, swapped bool) {
	a := uint64(k.SrcIP)<<16 | uint64(k.SrcPort)
	b := uint64(k.DstIP)<<16 | uint64(k.DstPort)
	if a <= b {
		return k, false
	}
	return Key{SrcIP: k.DstIP, DstIP: k.SrcIP,
		SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}, true
}

// entryBytes is the simulated footprint of one slab entry: one cache
// line, like a packed C conntrack entry. Touching an entry charges a
// line load through the simulated hierarchy, so a million-flow table
// generates the LLC pressure a real one would.
const entryBytes = memsim.CacheLineSize

// Entry is one tracked flow. Fields the datapath reads are exported;
// the index links threading the wheel and activity lists are not.
type Entry struct {
	Key     Key
	Value   uint64 // caller payload (the NAT keeps its external port here)
	State   State
	Packets uint64
	Bytes   uint64  // wire bytes carried by the flow (element-maintained)
	Created float64 // arrival of the first segment, simulated ns
	Last    float64 // arrival of the most recent segment, simulated ns

	// Sampled per-flow TX latency, accumulated by the flow log's depart
	// hook. Zero when flow logging is off or the flow was never sampled.
	LatSumNS   float64
	LatMaxNS   float64
	LatSamples uint32

	class Class
	live  bool

	// Timer-wheel linkage (index-based intrusive list).
	deadTick             int64
	wheelPos             int32
	wheelNext, wheelPrev int32

	// Per-class activity list linkage: least-recent at the head, so the
	// head is always the eviction victim for its class.
	lruNext, lruPrev int32
}

// Cause tells the reclaim callback why an entry is leaving the table.
type Cause uint8

const (
	// CauseExpired: the idle timeout fired on the timer wheel.
	CauseExpired Cause = iota
	// CauseEvicted: displaced by a new flow under table pressure.
	CauseEvicted
	// CauseDeleted: removed explicitly (flow teardown, test cleanup).
	CauseDeleted
)

var causeNames = [...]string{"expired", "evicted", "deleted"}

// String names the cause the way trace events print it.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "invalid"
}

// Verdict is the per-packet outcome of Track.
type Verdict uint8

const (
	// VerdictNew: the packet opened a flow; an entry was installed.
	VerdictNew Verdict = iota
	// VerdictPass: the packet matched a tracked flow.
	VerdictPass
	// VerdictInvalid: strict mode refused a mid-stream TCP pickup.
	VerdictInvalid
	// VerdictFull: the table is at capacity with nothing evictable.
	VerdictFull
	// VerdictNoResource: the caller's resource hook refused the flow
	// (the NAT's port pool ran dry).
	VerdictNoResource
)

// Config sizes and tunes one shard.
type Config struct {
	// Capacity is the maximum number of concurrent flows. The cuckoo
	// index is provisioned with headroom above it, so refusals come
	// from the eviction policy, not hash clustering.
	Capacity int
	// Timeouts are the state-dependent idle limits; zero fields take
	// DefaultTimeouts.
	Timeouts Timeouts
	// TickNS is the wheel granularity (default 1 ms of simulated time).
	TickNS float64
	// SweepBudget bounds expirations per Advance call so a mass-expiry
	// storm amortizes across bursts (default 256).
	SweepBudget int
	// Strict refuses TCP packets for unknown flows that do not open
	// with a SYN (VerdictInvalid) instead of admitting a mid-stream
	// pickup as established.
	Strict bool
	// ProtectEstablished forbids evicting ClassEstablished entries: a
	// full table of real connections refuses new flows (VerdictFull,
	// booked as flow-table-full) instead of cannibalizing them.
	ProtectEstablished bool
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 1 << 16
	}
	z := Timeouts{}
	d := DefaultTimeouts()
	if c.Timeouts == z {
		c.Timeouts = d
	} else {
		if c.Timeouts.Embryonic == 0 {
			c.Timeouts.Embryonic = d.Embryonic
		}
		if c.Timeouts.Established == 0 {
			c.Timeouts.Established = d.Established
		}
		if c.Timeouts.Closing == 0 {
			c.Timeouts.Closing = d.Closing
		}
		if c.Timeouts.Untracked == 0 {
			c.Timeouts.Untracked = d.Untracked
		}
	}
	if c.TickNS <= 0 {
		c.TickNS = 1e6
	}
	if c.SweepBudget <= 0 {
		c.SweepBudget = 256
	}
	return c
}

// Stats is the shard's counter ledger; Occupancy and wheel lag are read
// live off the shard.
type Stats struct {
	Insertions  uint64
	Lookups     uint64
	Hits        uint64
	Expirations uint64
	Evictions   [NumClasses]uint64
	// RefusedFull counts VerdictFull packets, RefusedInvalid the strict-
	// mode VerdictInvalid ones. The caller books the matching
	// DropFlowTable* reasons; these stay here so shard-level accounting
	// is self-contained.
	RefusedFull    uint64
	RefusedInvalid uint64
	// MaxWheelLagNS is the worst wheel-time lag observed at an Advance.
	MaxWheelLagNS float64
}

// EvictionsTotal sums the per-class eviction counters.
func (s *Stats) EvictionsTotal() uint64 {
	var t uint64
	for _, v := range s.Evictions {
		t += v
	}
	return t
}

// listHead is one intrusive activity list (least-recent first).
type listHead struct{ head, tail int32 }

// Shard is one core's flow table. Not safe for concurrent use — that is
// the point: one shard per core, and RSS keeps each flow on its core.
type Shard struct {
	cfg   Config
	table *cuckoo.Table
	ents  []Entry
	free  int32 // free-slot list through lruNext
	liveN int
	w     wheel
	act   [NumClasses]listHead
	base  memsim.Addr
	stats Stats
	now   float64

	// OnReclaim, when set, observes every entry leaving the table with
	// the cause. The NAT recycles external ports here. The entry is
	// still intact when called; it is freed immediately after.
	OnReclaim func(e *Entry, cause Cause)

	// evictKey is scratch for the cuckoo eviction callback (avoids a
	// closure allocation per insert).
	evictCb func() (Key, bool)
}

// NewShard builds a shard with cfg.Capacity preallocated entries, the
// cuckoo index, and the timer wheel, placing simulated state in arena.
func NewShard(cfg Config, arena *memsim.Arena, seed uint64) *Shard {
	cfg = cfg.withDefaults()
	s := &Shard{
		cfg:   cfg,
		table: cuckoo.New(cfg.Capacity, arena, seed^0x636f6e6e),
		ents:  make([]Entry, cfg.Capacity),
		base:  arena.Alloc(uint64(cfg.Capacity)*entryBytes, memsim.PageSize),
	}
	for c := range s.act {
		s.act[c] = listHead{head: noEntry, tail: noEntry}
	}
	// Thread the free list through lruNext.
	s.free = 0
	for i := range s.ents {
		s.ents[i].lruNext = int32(i + 1)
		s.ents[i].wheelPos = -1
	}
	s.ents[len(s.ents)-1].lruNext = noEntry
	s.w.init(s.ents, cfg.TickNS)
	s.evictCb = s.evictForInsert
	return s
}

// Len reports live flows.
func (s *Shard) Len() int { return s.liveN }

// Capacity reports the slab size.
func (s *Shard) Capacity() int { return len(s.ents) }

// StatsSnapshot copies the counter ledger.
func (s *Shard) StatsSnapshot() Stats { return s.stats }

// WheelLagNS reports how far the wheel trails the last observed clock.
func (s *Shard) WheelLagNS() float64 { return s.w.lagNS(s.now) }

// chargeEntry models the cache cost of touching entry idx.
func (s *Shard) chargeEntry(core *machine.Core, idx int32) {
	if core != nil {
		core.Load(s.base+memsim.Addr(idx)*entryBytes, entryBytes)
		core.Compute(8)
	}
}

// --- activity lists -------------------------------------------------

func (s *Shard) actPush(idx int32) {
	e := &s.ents[idx]
	l := &s.act[e.class]
	e.lruNext = noEntry
	e.lruPrev = l.tail
	if l.tail != noEntry {
		s.ents[l.tail].lruNext = idx
	} else {
		l.head = idx
	}
	l.tail = idx
}

func (s *Shard) actRemove(idx int32) {
	e := &s.ents[idx]
	l := &s.act[e.class]
	if e.lruPrev != noEntry {
		s.ents[e.lruPrev].lruNext = e.lruNext
	} else {
		l.head = e.lruNext
	}
	if e.lruNext != noEntry {
		s.ents[e.lruNext].lruPrev = e.lruPrev
	} else {
		l.tail = e.lruPrev
	}
	e.lruNext, e.lruPrev = noEntry, noEntry
}

// actTouch moves idx to the most-recent end of its class list.
func (s *Shard) actTouch(idx int32) {
	if s.act[s.ents[idx].class].tail == idx {
		return
	}
	s.actRemove(idx)
	s.actPush(idx)
}

// --- slab -----------------------------------------------------------

func (s *Shard) allocEntry() int32 {
	idx := s.free
	if idx == noEntry {
		return noEntry
	}
	s.free = s.ents[idx].lruNext
	e := &s.ents[idx]
	*e = Entry{wheelPos: -1, wheelNext: noEntry, wheelPrev: noEntry,
		lruNext: noEntry, lruPrev: noEntry}
	s.liveN++
	return idx
}

func (s *Shard) freeEntry(idx int32) {
	e := &s.ents[idx]
	e.live = false
	e.State = StateFree
	e.lruNext = s.free
	s.free = idx
	s.liveN--
}

// reclaim removes a live entry: unlink wheel + activity list, notify
// OnReclaim, delete the cuckoo mapping unless the caller owns that step
// (the cuckoo eviction callback deletes it itself), and free the slot.
func (s *Shard) reclaim(core *machine.Core, idx int32, cause Cause, deleteKey bool) {
	e := &s.ents[idx]
	s.w.cancel(idx)
	s.actRemove(idx)
	if s.OnReclaim != nil {
		s.OnReclaim(e, cause)
	}
	if deleteKey {
		s.table.Delete(core, e.Key)
	}
	s.freeEntry(idx)
}

// evictVictim picks the eviction victim: the least-recently-active
// entry of the lowest-priority class that has one. With
// ProtectEstablished the established class is off limits.
func (s *Shard) evictVictim() int32 {
	ceiling := NumClasses
	if s.cfg.ProtectEstablished {
		ceiling = ClassEstablished
	}
	for c := ClassEmbryonic; c < ceiling; c++ {
		if idx := s.act[c].head; idx != noEntry {
			return idx
		}
	}
	return noEntry
}

// evictForInsert is the cuckoo InsertEvict callback: sacrifice the
// current victim (full reclaim except the cuckoo delete, which the
// table performs) and hand its key back for removal.
func (s *Shard) evictForInsert() (Key, bool) {
	idx := s.evictVictim()
	if idx == noEntry {
		return Key{}, false
	}
	e := &s.ents[idx]
	k := e.Key
	s.stats.Evictions[e.class]++
	s.reclaim(nil, idx, CauseEvicted, false)
	return k, true
}

// Advance drives the timer wheel to nowNS, expiring idle flows within
// the sweep budget. Entries that saw traffic since arming are lazily
// re-armed instead of expired. Returns the number of flows expired.
func (s *Shard) Advance(core *machine.Core, nowNS float64) int {
	if nowNS > s.now {
		s.now = nowNS
	}
	expired := 0
	s.w.advance(nowNS, s.cfg.SweepBudget, func(idx int32) {
		e := &s.ents[idx]
		s.chargeEntry(core, idx)
		deadline := e.Last + s.cfg.Timeouts.forState(e.State)
		if deadline > nowNS {
			s.w.arm(idx, deadline)
			return
		}
		s.stats.Expirations++
		s.reclaim(core, idx, CauseExpired, true)
		expired++
	})
	if lag := s.w.lagNS(nowNS); lag > s.stats.MaxWheelLagNS {
		s.stats.MaxWheelLagNS = lag
	}
	return expired
}

// Lookup finds a flow without updating its state or activity.
func (s *Shard) Lookup(core *machine.Core, k Key) (*Entry, bool) {
	v, ok := s.table.Lookup(core, k)
	if !ok {
		return nil, false
	}
	idx := int32(v)
	s.chargeEntry(core, idx)
	return &s.ents[idx], true
}

// Track is the per-packet operation: look the flow up, advance its TCP
// state, stamp activity, and — for unknown flows — admit it (evicting
// under pressure) or refuse it. value seeds Entry.Value for new flows;
// existing flows keep theirs. No allocation on any path.
func (s *Shard) Track(core *machine.Core, k Key, proto uint8, tcpFlags uint8, nowNS float64, value uint64) (*Entry, Verdict) {
	if e, ok := s.Update(core, k, proto, tcpFlags, nowNS); ok {
		return e, VerdictPass
	}
	return s.Admit(core, k, proto, tcpFlags, nowNS, value)
}

// Update is the hit-only half of Track: advance an existing flow's TCP
// state and stamp its activity, reporting a miss without admitting
// anything. Callers that must allocate a resource before admission (the
// NAT's port pool) use Update + Admit instead of Track.
func (s *Shard) Update(core *machine.Core, k Key, proto uint8, tcpFlags uint8, nowNS float64) (*Entry, bool) {
	if nowNS > s.now {
		s.now = nowNS
	}
	s.stats.Lookups++
	v, ok := s.table.Lookup(core, k)
	if !ok {
		return nil, false
	}
	idx := int32(v)
	s.chargeEntry(core, idx)
	e := &s.ents[idx]
	s.stats.Hits++
	ns := next(e.State, proto, tcpFlags)
	if ns != e.State {
		s.transition(idx, ns, nowNS)
	}
	e.Last = nowNS
	e.Packets++
	s.actTouch(idx)
	if core != nil {
		core.Store(s.base+memsim.Addr(idx)*entryBytes, 16)
	}
	return e, true
}

// Admit installs a new flow for a packet that missed in Update,
// applying the strict-mode check and the eviction policy. value seeds
// Entry.Value.
func (s *Shard) Admit(core *machine.Core, k Key, proto uint8, tcpFlags uint8, nowNS float64, value uint64) (*Entry, Verdict) {
	if nowNS > s.now {
		s.now = nowNS
	}
	// Strict mode refuses TCP mid-stream pickups for unknown flows.
	st := next(StateFree, proto, tcpFlags)
	if s.cfg.Strict && st == StateEstablished && proto == netpkt.ProtoTCP {
		s.stats.RefusedInvalid++
		return nil, VerdictInvalid
	}
	idx, v := s.insert(core, k, st, nowNS, value)
	if v != VerdictNew {
		return nil, v
	}
	return &s.ents[idx], v
}

// insert admits a new flow in state st, evicting under pressure.
func (s *Shard) insert(core *machine.Core, k Key, st State, nowNS float64, value uint64) (int32, Verdict) {
	if s.liveN >= len(s.ents) {
		// Slab full: evict by class priority before anything else.
		vidx := s.evictVictim()
		if vidx == noEntry {
			s.stats.RefusedFull++
			return noEntry, VerdictFull
		}
		s.stats.Evictions[s.ents[vidx].class]++
		s.reclaim(core, vidx, CauseEvicted, true)
	}
	idx := s.allocEntry()
	if idx == noEntry {
		s.stats.RefusedFull++
		return noEntry, VerdictFull
	}
	if err := s.table.InsertEvict(core, k, uint64(idx), s.evictCb); err != nil {
		s.freeEntry(idx)
		s.stats.RefusedFull++
		return noEntry, VerdictFull
	}
	e := &s.ents[idx]
	e.Key = k
	e.Value = value
	e.State = st
	e.class = classOf(st)
	e.live = true
	e.Created = nowNS
	e.Last = nowNS
	e.Packets = 1
	s.actPush(idx)
	s.w.arm(idx, nowNS+s.cfg.Timeouts.forState(st))
	s.stats.Insertions++
	if core != nil {
		core.Store(s.base+memsim.Addr(idx)*entryBytes, entryBytes)
		core.Compute(12)
	}
	return idx, VerdictNew
}

// transition moves an entry between states, re-filing it across class
// lists and re-arming its deadline when the timeout regime changes.
func (s *Shard) transition(idx int32, ns State, nowNS float64) {
	e := &s.ents[idx]
	oldClass, newClass := e.class, classOf(ns)
	oldTimeout := s.cfg.Timeouts.forState(e.State)
	newTimeout := s.cfg.Timeouts.forState(ns)
	if oldClass != newClass {
		s.actRemove(idx)
		e.class = newClass
		s.actPush(idx)
	}
	e.State = ns
	if oldTimeout != newTimeout {
		s.w.cancel(idx)
		s.w.arm(idx, nowNS+newTimeout)
	}
}

// Delete removes a flow explicitly, reporting whether it was present.
func (s *Shard) Delete(core *machine.Core, k Key) bool {
	v, ok := s.table.Lookup(core, k)
	if !ok {
		return false
	}
	s.reclaim(core, int32(v), CauseDeleted, true)
	return true
}

// ForEachLive visits every live entry; return false from fn to stop.
// It is O(capacity), not a datapath operation.
func (s *Shard) ForEachLive(fn func(e *Entry) bool) {
	for i := range s.ents {
		if s.ents[i].live {
			if !fn(&s.ents[i]) {
				return
			}
		}
	}
}

// String summarizes the shard for debug logs.
func (s *Shard) String() string {
	return fmt.Sprintf("conntrack{live=%d/%d armed=%d ins=%d exp=%d evict=%d}",
		s.liveN, len(s.ents), s.w.armed, s.stats.Insertions,
		s.stats.Expirations, s.stats.EvictionsTotal())
}
