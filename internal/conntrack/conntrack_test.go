package conntrack

import (
	"testing"

	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
)

func testShard(cfg Config) *Shard {
	return NewShard(cfg, memsim.NewArena("ct", memsim.HeapBase, 1<<30), 7)
}

func flowKey(i uint32) Key {
	return Key{SrcIP: 0x0a000000 + i, DstIP: 0x0b000000 + i*13,
		SrcPort: uint16(i%60000) + 1024, DstPort: 443, Proto: netpkt.ProtoTCP}
}

func udpKey(i uint32) Key {
	k := flowKey(i)
	k.Proto = netpkt.ProtoUDP
	return k
}

// establish walks a flow through SYN → SYN/ACK → ACK.
func establish(s *Shard, k Key, now float64) *Entry {
	s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagSYN, now, 0)
	s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagSYN|netpkt.TCPFlagACK, now+1e4, 0)
	e, _ := s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagACK, now+2e4, 0)
	return e
}

func TestTCPLifecycle(t *testing.T) {
	s := testShard(Config{Capacity: 64})
	k := flowKey(1)
	e, v := s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagSYN, 0, 42)
	if v != VerdictNew || e.State != StateSynSent || e.class != ClassEmbryonic {
		t.Fatalf("after SYN: v=%v state=%v class=%v", v, e.State, e.class)
	}
	if e.Value != 42 {
		t.Fatalf("value not seeded: %d", e.Value)
	}
	e, v = s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagSYN|netpkt.TCPFlagACK, 1e4, 0)
	if v != VerdictPass || e.State != StateSynAck {
		t.Fatalf("after SYN/ACK: v=%v state=%v", v, e.State)
	}
	e, _ = s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagACK, 2e4, 0)
	if e.State != StateEstablished || e.class != ClassEstablished {
		t.Fatalf("after ACK: state=%v class=%v", e.State, e.class)
	}
	if e.Value != 42 {
		t.Fatal("value lost across transitions")
	}
	e, _ = s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagFIN|netpkt.TCPFlagACK, 3e4, 0)
	if e.State != StateFinWait || e.class != ClassTransient {
		t.Fatalf("after FIN: state=%v class=%v", e.State, e.class)
	}
	e, _ = s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagRST, 4e4, 0)
	if e.State != StateClosed {
		t.Fatalf("after RST: state=%v", e.State)
	}
	if e.Packets != 5 {
		t.Fatalf("packets=%d, want 5", e.Packets)
	}
}

func TestFlowReincarnation(t *testing.T) {
	s := testShard(Config{Capacity: 64})
	k := flowKey(1)
	establish(s, k, 0)
	s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagRST, 1e5, 0)
	// Same 5-tuple, fresh SYN while the corpse lingers: handshake restarts.
	e, v := s.Track(nil, k, netpkt.ProtoTCP, netpkt.TCPFlagSYN, 2e5, 0)
	if v != VerdictPass || e.State != StateSynSent || e.class != ClassEmbryonic {
		t.Fatalf("reincarnation: v=%v state=%v class=%v", v, e.State, e.class)
	}
}

func TestStrictModeRefusesMidStream(t *testing.T) {
	s := testShard(Config{Capacity: 64, Strict: true})
	e, v := s.Track(nil, flowKey(1), netpkt.ProtoTCP, netpkt.TCPFlagACK, 0, 0)
	if v != VerdictInvalid || e != nil {
		t.Fatalf("strict mid-stream pickup: v=%v e=%v", v, e)
	}
	if s.StatsSnapshot().RefusedInvalid != 1 {
		t.Fatal("refusal not counted")
	}
	// A SYN opens normally, and UDP is never refused.
	if _, v := s.Track(nil, flowKey(2), netpkt.ProtoTCP, netpkt.TCPFlagSYN, 0, 0); v != VerdictNew {
		t.Fatalf("strict SYN open: %v", v)
	}
	if _, v := s.Track(nil, udpKey(3), netpkt.ProtoUDP, 0, 0, 0); v != VerdictNew {
		t.Fatalf("strict UDP open: %v", v)
	}
}

func TestLooseModePicksUpMidStream(t *testing.T) {
	s := testShard(Config{Capacity: 64})
	e, v := s.Track(nil, flowKey(1), netpkt.ProtoTCP, netpkt.TCPFlagACK, 0, 0)
	if v != VerdictNew || e.State != StateEstablished {
		t.Fatalf("loose pickup: v=%v state=%v", v, e.State)
	}
}

func TestIdleExpiry(t *testing.T) {
	s := testShard(Config{Capacity: 256, Timeouts: Timeouts{Untracked: 1e6}})
	var reclaimed []Cause
	s.OnReclaim = func(e *Entry, c Cause) { reclaimed = append(reclaimed, c) }
	for i := uint32(0); i < 10; i++ {
		s.Track(nil, udpKey(i), netpkt.ProtoUDP, 0, 0, 0)
	}
	if s.Len() != 10 {
		t.Fatalf("len=%d", s.Len())
	}
	if n := s.Advance(nil, 5e5); n != 0 || s.Len() != 10 {
		t.Fatalf("early expiry: n=%d len=%d", n, s.Len())
	}
	if n := s.Advance(nil, 3e6); n != 10 || s.Len() != 0 {
		t.Fatalf("expiry: n=%d len=%d", n, s.Len())
	}
	if len(reclaimed) != 10 {
		t.Fatalf("OnReclaim calls: %d", len(reclaimed))
	}
	for _, c := range reclaimed {
		if c != CauseExpired {
			t.Fatalf("cause %v", c)
		}
	}
	if st := s.StatsSnapshot(); st.Expirations != 10 {
		t.Fatalf("expirations=%d", st.Expirations)
	}
}

// Activity must push the deadline out without the hot path touching the
// wheel: the wheel fires at the armed deadline, sees fresh LastSeen,
// and re-arms instead of expiring.
func TestLazyRearmKeepsActiveFlowAlive(t *testing.T) {
	s := testShard(Config{Capacity: 64, Timeouts: Timeouts{Untracked: 1e6}})
	k := udpKey(1)
	s.Track(nil, k, netpkt.ProtoUDP, 0, 0, 0)
	for now := 5e5; now <= 5e6; now += 5e5 {
		s.Track(nil, k, netpkt.ProtoUDP, 0, now, 0)
		s.Advance(nil, now)
		if s.Len() != 1 {
			t.Fatalf("active flow expired at %v", now)
		}
	}
	// Silence: one idle timeout later it goes.
	if s.Advance(nil, 5e6+2.1e6); s.Len() != 0 {
		t.Fatal("idle flow survived")
	}
}

func TestEvictionPriority(t *testing.T) {
	s := testShard(Config{Capacity: 8})
	// 4 established flows, then fill the rest with embryonic SYNs.
	for i := uint32(0); i < 4; i++ {
		establish(s, flowKey(i), float64(i)*1e3)
	}
	for i := uint32(100); i < 104; i++ {
		s.Track(nil, flowKey(i), netpkt.ProtoTCP, netpkt.TCPFlagSYN, 1e6, 0)
	}
	if s.Len() != 8 {
		t.Fatalf("len=%d", s.Len())
	}
	// Pressure: 4 more SYNs. Each evicts an embryonic entry (oldest
	// first), never an established one.
	for i := uint32(200); i < 204; i++ {
		if _, v := s.Track(nil, flowKey(i), netpkt.ProtoTCP, netpkt.TCPFlagSYN, 2e6, 0); v != VerdictNew {
			t.Fatalf("pressure insert %d: %v", i, v)
		}
	}
	st := s.StatsSnapshot()
	if st.Evictions[ClassEmbryonic] != 4 || st.Evictions[ClassEstablished] != 0 {
		t.Fatalf("evictions: %v", st.Evictions)
	}
	for i := uint32(0); i < 4; i++ {
		if _, ok := s.Lookup(nil, flowKey(i)); !ok {
			t.Fatalf("established flow %d evicted", i)
		}
	}
	for i := uint32(100); i < 104; i++ {
		if _, ok := s.Lookup(nil, flowKey(i)); ok {
			t.Fatalf("embryonic flow %d survived pressure", i)
		}
	}
}

func TestProtectEstablishedRefusesWhenFull(t *testing.T) {
	s := testShard(Config{Capacity: 4, ProtectEstablished: true})
	for i := uint32(0); i < 4; i++ {
		establish(s, flowKey(i), 0)
	}
	e, v := s.Track(nil, flowKey(99), netpkt.ProtoTCP, netpkt.TCPFlagSYN, 1e6, 0)
	if v != VerdictFull || e != nil {
		t.Fatalf("protected full table: v=%v", v)
	}
	if st := s.StatsSnapshot(); st.RefusedFull != 1 || st.EvictionsTotal() != 0 {
		t.Fatalf("stats: refused=%d evictions=%d", st.RefusedFull, st.EvictionsTotal())
	}
	// Without protection the same insert displaces an established flow.
	s2 := testShard(Config{Capacity: 4})
	for i := uint32(0); i < 4; i++ {
		establish(s2, flowKey(i), 0)
	}
	if _, v := s2.Track(nil, flowKey(99), netpkt.ProtoTCP, netpkt.TCPFlagSYN, 1e6, 0); v != VerdictNew {
		t.Fatalf("unprotected full table: v=%v", v)
	}
	if st := s2.StatsSnapshot(); st.Evictions[ClassEstablished] != 1 {
		t.Fatalf("evictions: %v", st.Evictions)
	}
}

func TestDeleteRecyclesSlot(t *testing.T) {
	s := testShard(Config{Capacity: 4})
	var causes []Cause
	s.OnReclaim = func(e *Entry, c Cause) { causes = append(causes, c) }
	k := udpKey(1)
	s.Track(nil, k, netpkt.ProtoUDP, 0, 0, 7)
	if !s.Delete(nil, k) || s.Len() != 0 {
		t.Fatal("delete failed")
	}
	if s.Delete(nil, k) {
		t.Fatal("double delete")
	}
	if len(causes) != 1 || causes[0] != CauseDeleted {
		t.Fatalf("causes: %v", causes)
	}
	// The slot is reusable at capacity.
	for i := uint32(0); i < 4; i++ {
		if _, v := s.Track(nil, udpKey(10+i), netpkt.ProtoUDP, 0, 0, 0); v != VerdictNew {
			t.Fatalf("refill %d: %v", i, v)
		}
	}
}

func TestCanonicalMergesDirections(t *testing.T) {
	fwd := Key{SrcIP: 0x0a000001, DstIP: 0x0b000001, SrcPort: 40000, DstPort: 443, Proto: 6}
	rev := Key{SrcIP: 0x0b000001, DstIP: 0x0a000001, SrcPort: 443, DstPort: 40000, Proto: 6}
	cf, sf := Canonical(fwd)
	cr, sr := Canonical(rev)
	if cf != cr {
		t.Fatalf("directions diverge: %+v vs %+v", cf, cr)
	}
	if sf == sr {
		t.Fatal("both directions claim the same orientation")
	}
}

func TestStatsOccupancyAndLag(t *testing.T) {
	s := testShard(Config{Capacity: 1024, SweepBudget: 8, Timeouts: Timeouts{Untracked: 1e6}})
	for i := uint32(0); i < 512; i++ {
		s.Track(nil, udpKey(i), netpkt.ProtoUDP, 0, 0, 0)
	}
	// One budgeted sweep cannot clear 512 expirations: lag shows up.
	s.Advance(nil, 1e7)
	if s.Len() == 0 {
		t.Fatal("budget did not amortize")
	}
	if s.WheelLagNS() <= 0 {
		t.Fatal("no wheel lag under storm")
	}
	for i := 0; i < 200 && s.Len() > 0; i++ {
		s.Advance(nil, 1e7)
	}
	if s.Len() != 0 || s.WheelLagNS() != 0 {
		t.Fatalf("after catch-up: len=%d lag=%v", s.Len(), s.WheelLagNS())
	}
	if st := s.StatsSnapshot(); st.MaxWheelLagNS <= 0 {
		t.Fatal("max lag gauge never moved")
	}
}

// The headline gate: a shard holding a million concurrent flows at
// steady state, with the per-packet path (hits, state updates, aging
// sweeps) allocation-free.
func TestMillionFlowsSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("million-flow slab in -short mode")
	}
	const n = 1 << 20
	s := NewShard(Config{Capacity: n, Timeouts: Timeouts{Untracked: 60e9}},
		memsim.NewArena("ct1m", memsim.HeapBase, 1<<31), 7)
	for i := uint32(0); i < n; i++ {
		if _, v := s.Track(nil, udpKey(i), netpkt.ProtoUDP, 0, float64(i), 0); v != VerdictNew {
			t.Fatalf("insert %d: %v", i, v)
		}
	}
	if s.Len() != n {
		t.Fatalf("len=%d, want %d", s.Len(), n)
	}
	if st := s.StatsSnapshot(); st.EvictionsTotal() != 0 || st.RefusedFull != 0 {
		t.Fatalf("pressure during fill: %+v", st)
	}
	// Steady state: every flow stays active; sweeps only re-arm.
	var i uint32
	now := float64(n)
	avg := testing.AllocsPerRun(5000, func() {
		i = (i + 99991) % n
		now += 1e3
		if _, v := s.Track(nil, udpKey(i), netpkt.ProtoUDP, 0, now, 0); v != VerdictPass {
			t.Fatalf("steady-state miss on flow %d", i)
		}
		s.Advance(nil, now)
	})
	if avg != 0 {
		t.Errorf("steady state allocates %.2f/packet, want 0", avg)
	}
	if s.Len() != n {
		t.Fatalf("flows lost at steady state: %d", s.Len())
	}
}

// New-flow admissions under churn — insert, evict, expire — must also
// stay allocation-free once the slab is warm.
func TestChurnZeroAllocs(t *testing.T) {
	s := testShard(Config{Capacity: 4096, Timeouts: Timeouts{Untracked: 1e6}})
	for i := uint32(0); i < 4096; i++ {
		s.Track(nil, udpKey(i), netpkt.ProtoUDP, 0, float64(i*100), 0)
	}
	var i uint32 = 4096
	now := 4096 * 100.0
	avg := testing.AllocsPerRun(5000, func() {
		i++
		now += 1e3
		s.Track(nil, udpKey(i), netpkt.ProtoUDP, 0, now, 0)
		s.Advance(nil, now)
	})
	if avg != 0 {
		t.Errorf("churn allocates %.2f/insert, want 0", avg)
	}
}
