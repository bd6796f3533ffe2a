package flowlog

import (
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"packetmill/internal/conntrack"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
	"packetmill/internal/stats"
)

func newShard(t *testing.T, cfg conntrack.Config) *conntrack.Shard {
	t.Helper()
	return conntrack.NewShard(cfg, memsim.NewArena("fl", memsim.HeapBase, 1<<28), 7)
}

// makeTCPFrame builds a minimal Ethernet+IPv4+TCP frame for the given
// 5-tuple (payload padding to 64 bytes).
func makeTCPFrame(srcIP, dstIP uint32, sport, dport uint16) []byte {
	f := make([]byte, 64)
	binary.BigEndian.PutUint16(f[12:14], netpkt.EtherTypeIPv4)
	ip := f[netpkt.EtherHdrLen:]
	ip[0] = 0x45
	ip[9] = netpkt.ProtoTCP
	binary.BigEndian.PutUint32(ip[12:16], srcIP)
	binary.BigEndian.PutUint32(ip[16:20], dstIP)
	l4 := ip[20:]
	binary.BigEndian.PutUint16(l4[0:2], sport)
	binary.BigEndian.PutUint16(l4[2:4], dport)
	return f
}

func TestKeyFromFrame(t *testing.T) {
	f := makeTCPFrame(0x0a000001, 0x0a010002, 1024, 80)
	k, ok := KeyFromFrame(f)
	if !ok {
		t.Fatal("KeyFromFrame rejected a well-formed TCP frame")
	}
	want := conntrack.Key{SrcIP: 0x0a000001, DstIP: 0x0a010002,
		SrcPort: 1024, DstPort: 80, Proto: netpkt.ProtoTCP}
	if k != want {
		t.Fatalf("key = %+v, want %+v", k, want)
	}

	// One VLAN tag is tolerated.
	tagged := make([]byte, 0, len(f)+4)
	tagged = append(tagged, f[:12]...)
	tagged = append(tagged, 0x81, 0x00, 0x00, 0x2a)
	tagged = append(tagged, f[12:]...)
	if kk, ok := KeyFromFrame(tagged); !ok || kk != want {
		t.Fatalf("VLAN-tagged key = %+v ok=%v, want %+v", kk, ok, want)
	}

	// Non-IP and truncated frames are refused, not mis-parsed.
	arp := make([]byte, 64)
	binary.BigEndian.PutUint16(arp[12:14], netpkt.EtherTypeARP)
	if _, ok := KeyFromFrame(arp); ok {
		t.Fatal("KeyFromFrame accepted an ARP frame")
	}
	if _, ok := KeyFromFrame(f[:20]); ok {
		t.Fatal("KeyFromFrame accepted a truncated frame")
	}
}

// Every record must encode as valid JSON with the schema tag; flow
// records carry the tuple, aggregates the reason.
func TestRecordJSON(t *testing.T) {
	flow := Record{
		Core: 0,
		Key: conntrack.Key{SrcIP: 0x0a000001, DstIP: 0x0a010002,
			SrcPort: 1024, DstPort: 80, Proto: 6},
		State: conntrack.StateEstablished, Verdict: VerdictForwarded,
		End: EndExpired, Reason: stats.NumDropReasons,
		Packets: 9, Bytes: 4096, FirstNS: 1000, LastNS: 9000,
		NATIP: 0xc0a80001, NATPort: 40001,
		LatSamples: 3, LatSumNS: 9000, LatMaxNS: 5000,
	}
	agg := Record{
		Core: -1, Verdict: VerdictShed, End: EndAggregate,
		Reason: stats.DropOverloadShed, Aggregate: true, Packets: 512,
	}
	var doc map[string]any
	for _, r := range []Record{flow, agg} {
		line := AppendJSON(nil, &r)
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("record does not parse as JSON: %v\n%s", err, line)
		}
		if doc["schema"] != Schema {
			t.Fatalf("schema = %v, want %q", doc["schema"], Schema)
		}
	}
	line := string(AppendJSON(nil, &flow))
	for _, want := range []string{`"src":"10.0.0.1"`, `"dst":"10.1.0.2"`,
		`"sport":1024`, `"dport":80`, `"state":"established"`,
		`"verdict":"forwarded"`, `"end":"expired"`,
		`"nat_ip":"192.168.0.1"`, `"nat_port":40001`, `"lat_samples":3`} {
		if !strings.Contains(line, want) {
			t.Fatalf("flow record lacks %s:\n%s", want, line)
		}
	}
	line = string(AppendJSON(nil, &agg))
	for _, want := range []string{`"aggregate":true`, `"reason":"overload-shed"`,
		`"verdict":"shed"`, `"packets":512`} {
		if !strings.Contains(line, want) {
			t.Fatalf("aggregate record lacks %s:\n%s", want, line)
		}
	}
	if strings.Contains(line, `"src"`) {
		t.Fatalf("aggregate record carries a flow tuple:\n%s", line)
	}
	if got := JSONL([]Record{flow, agg}); strings.Count(string(got), "\n") != 2 {
		t.Fatalf("JSONL emitted %d lines, want 2", strings.Count(string(got), "\n"))
	}
}

func TestVerdictForReason(t *testing.T) {
	for _, r := range stats.Reasons() {
		v := VerdictForReason(r)
		switch {
		case r.IsOverload() && v != VerdictShed:
			t.Fatalf("%s -> %s, want shed", r, v)
		case r.IsFlowTable() && v != VerdictRefused:
			t.Fatalf("%s -> %s, want refused", r, v)
		case !r.IsOverload() && !r.IsFlowTable() && v != VerdictDropped:
			t.Fatalf("%s -> %s, want dropped", r, v)
		}
	}
}

// Ring overflow must lose records, never packets: overwritten entries
// roll into per-verdict aggregates and the packet totals stay exact.
func TestRingOverflowConservesPackets(t *testing.T) {
	col := New(Config{RingSize: 8})
	c := col.Core(0)
	const flows = 50
	var totalPkts uint64
	for i := 0; i < flows; i++ {
		e := &conntrack.Entry{
			Key:     conntrack.Key{SrcIP: uint32(i + 1), DstIP: 2, SrcPort: 1, DstPort: 2, Proto: 6},
			Packets: uint64(i + 1), Bytes: uint64((i + 1) * 100),
			Created: float64(i), Last: float64(i + 10),
		}
		totalPkts += e.Packets
		c.FlowEnd(e, conntrack.CauseExpired)
	}
	if lost := col.RecordsLost(); lost != flows-8 {
		t.Fatalf("RecordsLost = %d, want %d", lost, flows-8)
	}
	var drops stats.DropCounters
	recs := col.Records(&drops, totalPkts)
	s := Summarize(recs)
	if s.TxSidePackets != totalPkts {
		t.Fatalf("TX-side packets = %d, want %d", s.TxSidePackets, totalPkts)
	}
	rec := Reconcile(recs, totalPkts, totalPkts, &drops)
	if !rec.Exact {
		t.Fatalf("reconciliation inexact: %+v", rec)
	}
}

// The full join: ended flows, live flows from a bound shard, element
// refusals subtracted from the external ledger, the ledger remainder,
// and the wire residue — all reconciling exactly.
func TestRecordsReconcileExactly(t *testing.T) {
	col := New(Config{})
	c := col.Core(0)
	s := newShard(t, conntrack.Config{Capacity: 64})
	c.BindShard(s, true, 0)

	// Three live flows, 4 packets each.
	var livePkts uint64
	for i := 0; i < 3; i++ {
		k := conntrack.Key{SrcIP: uint32(0x0a000001 + i), DstIP: 0x0a010002,
			SrcPort: 1000, DstPort: 80, Proto: netpkt.ProtoTCP}
		kk, _ := conntrack.Canonical(k)
		for p := 0; p < 4; p++ {
			e, _ := s.Track(nil, kk, netpkt.ProtoTCP, netpkt.TCPFlagSYN, float64(p)*1e3, 0)
			if e != nil {
				e.Bytes += 64
			}
			livePkts++
		}
	}
	// Two ended flows, 10 packets each.
	var endedPkts uint64
	for i := 0; i < 2; i++ {
		e := &conntrack.Entry{
			Key:     conntrack.Key{SrcIP: uint32(100 + i), DstIP: 7, SrcPort: 5, DstPort: 6, Proto: 17},
			Packets: 10, Bytes: 1000, Created: 0, Last: 5e6,
		}
		endedPkts += 10
		c.FlowEnd(e, conntrack.CauseDeleted)
	}
	// One evicted flow: TX-side by definition.
	ev := &conntrack.Entry{
		Key:     conntrack.Key{SrcIP: 200, DstIP: 7, SrcPort: 5, DstPort: 6, Proto: 6},
		Packets: 3, Bytes: 300,
	}
	c.FlowEnd(ev, conntrack.CauseEvicted)
	// Element refusals: booked here AND in the external ledger.
	for i := 0; i < 5; i++ {
		c.Refused(stats.DropFlowTableFull, 64, float64(i)*1e3)
	}
	// Untracked passthrough.
	c.Untracked(60)
	c.Untracked(60)

	var drops stats.DropCounters
	drops.Add(stats.DropFlowTableFull, 5) // the refusals, externally booked
	drops.Add(stats.DropOverloadShed, 20) // sheds with no element hook
	drops.Add(stats.DropRxNoBuf, 7)       // NIC loss

	txWire := livePkts + endedPkts + 3 + 2 + 11 // +3 evicted, +2 untracked, +11 residue
	offered := txWire + drops.Total()
	recs := col.Records(&drops, txWire)
	rec := Reconcile(recs, offered, txWire, &drops)
	if !rec.Exact {
		t.Fatalf("reconciliation inexact: %+v", rec)
	}
	sum := Summarize(recs)
	if sum.Packets[VerdictShed] != 20 {
		t.Fatalf("shed packets = %d, want 20", sum.Packets[VerdictShed])
	}
	if sum.Packets[VerdictRefused] != 5 {
		t.Fatalf("refused packets = %d, want 5 (ledger remainder must not double-count)", sum.Packets[VerdictRefused])
	}
	if sum.Packets[VerdictDropped] != 7 {
		t.Fatalf("dropped packets = %d, want 7", sum.Packets[VerdictDropped])
	}
	if sum.Packets[VerdictEvicted] != 3 {
		t.Fatalf("evicted packets = %d, want 3", sum.Packets[VerdictEvicted])
	}
	if sum.Unattributed != 2+11 {
		t.Fatalf("unattributed = %d, want 13", sum.Unattributed)
	}
	// Live flows surface as active records with their tuple.
	var active int
	for i := range recs {
		if recs[i].End == EndActive {
			active++
			if recs[i].Aggregate || recs[i].Key.DstIP != 0x0a010002 {
				t.Fatalf("malformed active record: %+v", recs[i])
			}
		}
	}
	if active != 3 {
		t.Fatalf("active records = %d, want 3", active)
	}
}

// The depart hook samples 1-in-N, parses keys back, and folds latency
// into the live entry; unknown tuples count as misses.
func TestNoteDepartSampling(t *testing.T) {
	col := New(Config{SampleEvery: 2})
	c := col.Core(0)
	s := newShard(t, conntrack.Config{Capacity: 64})
	c.BindShard(s, true, 0)

	k := conntrack.Key{SrcIP: 0x0a000001, DstIP: 0x0a010002,
		SrcPort: 1024, DstPort: 80, Proto: netpkt.ProtoTCP}
	kk, _ := conntrack.Canonical(k)
	e, _ := s.Track(nil, kk, netpkt.ProtoTCP, netpkt.TCPFlagSYN, 0, 0)
	if e == nil {
		t.Fatal("Track refused the flow")
	}

	frame := makeTCPFrame(k.SrcIP, k.DstIP, k.SrcPort, k.DstPort)
	for i := 0; i < 8; i++ {
		c.NoteDepart(frame, 1000)
	}
	sampled, misses := col.LatencySampled()
	if sampled != 4 || misses != 0 {
		t.Fatalf("sampled=%d misses=%d, want 4/0 (1-in-2 of 8)", sampled, misses)
	}
	if e.LatSamples != 4 || e.LatSumNS != 4000 || e.LatMaxNS != 1000 {
		t.Fatalf("entry latency = {n=%d sum=%v max=%v}, want {4 4000 1000}",
			e.LatSamples, e.LatSumNS, e.LatMaxNS)
	}
	// A tuple no table knows counts as a miss.
	stranger := makeTCPFrame(1, 2, 3, 4)
	c.NoteDepart(stranger, 500)
	c.NoteDepart(stranger, 500)
	if _, misses = col.LatencySampled(); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
}

func TestTopByBytes(t *testing.T) {
	recs := []Record{
		{Key: conntrack.Key{SrcIP: 1}, Bytes: 100},
		{Key: conntrack.Key{SrcIP: 2}, Bytes: 900},
		{Key: conntrack.Key{SrcIP: 3}, Bytes: 500},
		{Aggregate: true, Bytes: 1 << 30}, // aggregates never rank
	}
	top := TopByBytes(recs, 2)
	if len(top) != 2 || top[0].Bytes != 900 || top[1].Bytes != 500 {
		t.Fatalf("TopByBytes = %+v", top)
	}
}
