// Package layout describes packet-metadata structures *as data*: an
// ordered list of fields with sizes, alignments, and byte offsets. Making
// the layout a runtime value is what lets this repository reproduce the
// paper's two central ideas faithfully:
//
//   - The three metadata-management models (Copying, Overlaying, X-Change)
//     are three different layouts placed at different simulated addresses;
//     every element reads and writes metadata *through* the layout, so the
//     cache simulator sees exactly the lines each model touches.
//
//   - PacketMill's LLVM field-reordering pass becomes a transformation on
//     the layout: profile the per-field access counts of a given NF, sort
//     the hot fields into the first cache line(s), and re-run. This is the
//     same GEPI-offset rewrite as the paper's pass, applied to the same
//     kind of object.
package layout

import (
	"fmt"
	"sort"
	"strings"

	"packetmill/internal/memsim"
)

// FieldID names a metadata field. The set is shared across all layouts —
// DPDK's rte_mbuf, FastClick's Packet, BESS's sn_buff, VPP's vlib_buffer,
// and the X-Change custom descriptor each include a subset.
type FieldID int

// The universe of metadata fields.
const (
	// rte_mbuf-style hardware/driver metadata.
	FieldBufAddr FieldID = iota
	FieldDataOff
	FieldRefCnt
	FieldNbSegs
	FieldPort
	FieldOlFlags
	FieldPacketType
	FieldPktLen
	FieldDataLen
	FieldVlanTCI
	FieldRSSHash
	FieldTimestamp
	FieldNext
	FieldPool

	// Framework (Click Packet) header pointers and batching links.
	FieldMacHeader
	FieldNetworkHeader
	FieldTransportHeader
	FieldPrev

	// Packet annotations (the application metadata of §2.2).
	FieldAnnoPaint
	FieldAnnoDstIP
	FieldAnnoVLAN
	FieldAnnoAggregate
	FieldAnnoFlowID
	FieldAnnoExtra

	NumFields
)

var fieldNames = [NumFields]string{
	"buf_addr", "data_off", "refcnt", "nb_segs", "port", "ol_flags",
	"packet_type", "pkt_len", "data_len", "vlan_tci", "rss_hash",
	"timestamp", "next", "pool",
	"mac_header", "network_header", "transport_header", "prev",
	"anno_paint", "anno_dst_ip", "anno_vlan", "anno_aggregate",
	"anno_flow_id", "anno_extra",
}

var fieldSizes = [NumFields]uint32{
	8, 2, 2, 2, 2, 8,
	4, 4, 2, 2, 4,
	8, 8, 8,
	8, 8, 8, 8,
	1, 4, 2, 4,
	4, 16,
}

func (f FieldID) String() string {
	if f >= 0 && f < NumFields {
		return fieldNames[f]
	}
	return fmt.Sprintf("field(%d)", int(f))
}

// Size returns the field's width in bytes.
func (f FieldID) Size() uint32 {
	return fieldSizes[f]
}

// PadTo returns a copy of l whose size is grown to at least size bytes
// (trailing reserved space, e.g. the full 128-B rte_mbuf footprint when
// only the first line's fields are overlaid).
func PadTo(l *Layout, size uint32) *Layout {
	nl := *l
	if size > nl.size {
		nl.size = (size + memsim.CacheLineSize - 1) &^ (memsim.CacheLineSize - 1)
	}
	return &nl
}

// Extend builds a layout that embeds base verbatim (every base field keeps
// its exact offset — an overlay cast in C) and appends extra fields after
// it. The embedded region becomes a fixed prefix: the reorder pass will
// not move fields the driver hardware-writes at known offsets, matching
// the paper's correctness discussion in §3.2.2.
func Extend(base *Layout, name string, extra []FieldID) *Layout {
	nl := newAt(name, extra, base.size, base.size)
	for _, f := range base.order {
		if nl.offsets[f] != -1 {
			panic(fmt.Sprintf("layout %s: field %s in both base and extension", name, f))
		}
		nl.offsets[f] = base.offsets[f]
	}
	nl.order = append(append([]FieldID{}, base.order...), nl.order...)
	return nl
}

// Layout is a concrete placement of a set of fields in a struct.
// The zero value is unusable; build with New.
type Layout struct {
	name    string
	order   []FieldID
	offsets [NumFields]int32 // -1 if absent
	size    uint32
	// fixedPrefix marks layouts whose leading bytes mirror a foreign
	// layout (Overlaying carries the whole rte_mbuf); the reorder pass
	// refuses to move fields inside the prefix, matching the paper's
	// "only the Copying model is reorderable" restriction.
	fixedPrefix uint32
}

// New builds a layout by packing fields in the given order with natural
// alignment (size-aligned, like a C compiler would).
func New(name string, fields []FieldID) *Layout {
	return newAt(name, fields, 0, 0)
}

// NewGrouped builds a layout where each group of fields starts at a fresh
// cache-line boundary — how DPDK splits rte_mbuf into an RX line and a TX
// line (the `RTE_MARKER cacheline1` trick).
func NewGrouped(name string, groups ...[]FieldID) *Layout {
	l := &Layout{name: name}
	for i := range l.offsets {
		l.offsets[i] = -1
	}
	var off uint32
	for gi, g := range groups {
		if gi > 0 {
			// Round up to the next line boundary. If the previous
			// group ended exactly on a boundary that address is
			// already a fresh line.
			off = (off + memsim.CacheLineSize - 1) &^ (memsim.CacheLineSize - 1)
		}
		for _, f := range g {
			if l.offsets[f] != -1 {
				panic(fmt.Sprintf("layout %s: duplicate field %s", name, f))
			}
			sz := fieldSizes[f]
			al := sz
			if al > 8 {
				al = 8
			}
			off = (off + al - 1) &^ (al - 1)
			l.offsets[f] = int32(off)
			off += sz
			l.order = append(l.order, f)
		}
	}
	l.size = (off + memsim.CacheLineSize - 1) &^ (memsim.CacheLineSize - 1)
	if l.size == 0 {
		l.size = memsim.CacheLineSize
	}
	return l
}

func newAt(name string, fields []FieldID, start, fixed uint32) *Layout {
	l := &Layout{name: name, fixedPrefix: fixed}
	for i := range l.offsets {
		l.offsets[i] = -1
	}
	off := start
	for _, f := range fields {
		if f < 0 || f >= NumFields {
			panic(fmt.Sprintf("layout: bad field %d", f))
		}
		if l.offsets[f] != -1 {
			panic(fmt.Sprintf("layout %s: duplicate field %s", name, f))
		}
		sz := fieldSizes[f]
		al := sz
		if al > 8 {
			al = 8
		}
		off = (off + al - 1) &^ (al - 1)
		l.offsets[f] = int32(off)
		off += sz
		l.order = append(l.order, f)
	}
	// Struct size rounds to cache-line multiple: metadata objects are
	// line-aligned in every framework we model.
	l.size = (off + memsim.CacheLineSize - 1) &^ (memsim.CacheLineSize - 1)
	if l.size == 0 {
		l.size = memsim.CacheLineSize
	}
	return l
}

// Name returns the layout's name.
func (l *Layout) Name() string { return l.name }

// Size returns the struct size in bytes (cache-line multiple).
func (l *Layout) Size() uint32 { return l.size }

// Has reports whether the layout contains field f.
func (l *Layout) Has(f FieldID) bool { return l.offsets[f] >= 0 }

// Offset returns the byte offset of f; it panics if the layout lacks f,
// because an element compiled against the wrong layout is a program bug.
func (l *Layout) Offset(f FieldID) uint32 {
	o := l.offsets[f]
	if o < 0 {
		panic(fmt.Sprintf("layout %s: field %s not present", l.name, f))
	}
	return uint32(o)
}

// Fields returns the fields in placement order.
func (l *Layout) Fields() []FieldID {
	out := make([]FieldID, len(l.order))
	copy(out, l.order)
	return out
}

// LineOf returns which cache line (0-based, within the struct) field f
// occupies (its first byte).
func (l *Layout) LineOf(f FieldID) int {
	return int(l.Offset(f)) / memsim.CacheLineSize
}

// FixedPrefix returns the reserved prefix length (0 for reorderable layouts).
func (l *Layout) FixedPrefix() uint32 { return l.fixedPrefix }

// String renders a compact offset map, handy in golden tests and -v logs.
func (l *Layout) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%dB", l.name, l.size)
	if l.fixedPrefix > 0 {
		fmt.Fprintf(&b, ", %dB fixed prefix", l.fixedPrefix)
	}
	b.WriteString("):")
	for _, f := range l.order {
		fmt.Fprintf(&b, " %s@%d", f, l.offsets[f])
	}
	return b.String()
}

// Profile accumulates per-field access counts for one NF run. It is the
// input to the reordering pass (the paper's "references done by the NF ...
// sorted by estimated number of accesses").
type Profile struct {
	Counts [NumFields]uint64
}

// Record notes one access to f.
func (p *Profile) Record(f FieldID) { p.Counts[f]++ }

// Reset zeroes the profile.
func (p *Profile) Reset() { p.Counts = [NumFields]uint64{} }

// Total returns the sum of all counts.
func (p *Profile) Total() uint64 {
	var t uint64
	for _, c := range p.Counts {
		t += c
	}
	return t
}

// Hottest returns the profiled fields sorted by descending count,
// ties broken by field order for determinism.
func (p *Profile) Hottest() []FieldID {
	var fs []FieldID
	for f := FieldID(0); f < NumFields; f++ {
		if p.Counts[f] > 0 {
			fs = append(fs, f)
		}
	}
	sort.SliceStable(fs, func(i, j int) bool { return p.Counts[fs[i]] > p.Counts[fs[j]] })
	return fs
}

// SortCriterion selects how the reorder pass ranks fields. The paper's
// implemented pass sorts by access count; sorting by first-access order is
// called out as future work — we provide both so the ablation bench can
// compare them.
type SortCriterion int

const (
	// ByAccessCount places the most-accessed fields first.
	ByAccessCount SortCriterion = iota
	// ByFirstAccess places fields in the order the NF first touched them.
	ByFirstAccess
)

// OrderProfile extends Profile with first-access ordering for the
// ByFirstAccess criterion.
type OrderProfile struct {
	Profile
	firstSeen [NumFields]uint64
	clock     uint64
}

// Record notes one access, remembering first-touch order.
func (p *OrderProfile) Record(f FieldID) {
	p.clock++
	if p.Counts[f] == 0 {
		p.firstSeen[f] = p.clock
	}
	p.Profile.Record(f)
}

// Reorder produces a new layout for l with the same field set, re-packed
// so that hot fields come first. Fields inside a fixed prefix stay where
// they are. Unprofiled fields retain their relative order after the
// profiled ones (they are cold by definition).
func Reorder(l *Layout, p *OrderProfile, crit SortCriterion) *Layout {
	var movable, pinned []FieldID
	for _, f := range l.order {
		if uint32(l.offsets[f]) < l.fixedPrefix && l.fixedPrefix > 0 {
			pinned = append(pinned, f)
		} else {
			movable = append(movable, f)
		}
	}
	sort.SliceStable(movable, func(i, j int) bool {
		a, b := movable[i], movable[j]
		switch crit {
		case ByFirstAccess:
			ca, cb := p.firstSeen[a], p.firstSeen[b]
			// Untouched fields (firstSeen 0) sink to the back.
			if ca == 0 {
				ca = ^uint64(0)
			}
			if cb == 0 {
				cb = ^uint64(0)
			}
			return ca < cb
		default:
			return p.Counts[a] > p.Counts[b]
		}
	})
	name := l.name + "+reordered"
	if l.fixedPrefix > 0 {
		// Rebuild with the pinned prefix intact (placement order preserved,
		// not reversed — Fields()/String() must render identically run to
		// run for the byte-identical-output guarantee).
		nl := newAt(name, movable, l.fixedPrefix, l.fixedPrefix)
		for _, f := range pinned {
			nl.offsets[f] = l.offsets[f]
		}
		nl.order = append(append([]FieldID{}, pinned...), nl.order...)
		return nl
	}
	return New(name, movable)
}

// LinesTouched reports how many distinct cache lines of the layout a
// given access profile touches — the quantity the reorder pass minimizes.
func LinesTouched(l *Layout, p *OrderProfile) int {
	seen := map[int]bool{}
	for f := FieldID(0); f < NumFields; f++ {
		if p.Counts[f] > 0 && l.Has(f) {
			seen[l.LineOf(f)] = true
		}
	}
	return len(seen)
}

// --- canonical layouts ---

// RteMbuf returns the DPDK rte_mbuf layout: two cache lines, with the
// RX-hot fields in the first line, exactly as DPDK lays it out.
func RteMbuf() *Layout {
	return NewGrouped("rte_mbuf",
		// First cache line: RX-path fields.
		[]FieldID{
			FieldBufAddr, FieldDataOff, FieldRefCnt, FieldNbSegs, FieldPort,
			FieldOlFlags, FieldPacketType, FieldPktLen, FieldDataLen,
			FieldVlanTCI, FieldRSSHash, FieldTimestamp,
		},
		// Second cache line: TX/pool fields.
		[]FieldID{FieldNext, FieldPool},
	)
}

// ClickPacket returns FastClick's Packet class layout under the Copying
// model: header pointers and batching links up front (declaration order in
// packet.hh), then the 48-B annotation area. Deliberately *not* sorted by
// heat — that is the reorder pass's job.
func ClickPacket() *Layout {
	return New("click_packet", []FieldID{
		FieldBufAddr, FieldDataOff, FieldPktLen, FieldDataLen,
		FieldMacHeader, FieldNetworkHeader, FieldTransportHeader,
		FieldNext, FieldPrev, FieldTimestamp,
		FieldAnnoPaint, FieldAnnoDstIP, FieldAnnoVLAN,
		FieldAnnoAggregate, FieldAnnoFlowID, FieldAnnoExtra,
	})
}

// rteMbufRxLine returns just the RX (first) cache line of rte_mbuf — the
// fields the receive path writes. Overlay layouts embed this line and
// reserve the full 128-B mbuf footprint; they do not address the TX line.
func rteMbufRxLine() *Layout {
	return New("rte_mbuf_rx", []FieldID{
		FieldBufAddr, FieldDataOff, FieldRefCnt, FieldNbSegs, FieldPort,
		FieldOlFlags, FieldPacketType, FieldPktLen, FieldDataLen,
		FieldVlanTCI, FieldRSSHash, FieldTimestamp,
	})
}

// OverlayPacket returns the Overlaying-model layout: the rte_mbuf is
// embedded verbatim (the framework descriptor *is* a cast of the mbuf,
// with the full 128-B footprint reserved) and the framework's fields
// follow — BESS's sn_buff arrangement. The framework's hot fields (batch
// link, header pointers, routing annotation) are declared first so they
// pack into the line right after the mbuf; the struct stays deliberately
// fat compared to an X-Change descriptor.
func OverlayPacket() *Layout {
	return Extend(PadTo(rteMbufRxLine(), 128), "overlay_packet", []FieldID{
		FieldNext, FieldMacHeader, FieldNetworkHeader,
		FieldAnnoDstIP, FieldAnnoPaint, FieldAnnoVLAN,
		FieldTransportHeader, FieldPrev,
		FieldAnnoAggregate, FieldAnnoFlowID, FieldAnnoExtra,
	})
}

// XchgPacket returns the X-Change custom descriptor: only the fields the
// application actually needs, compact enough for a single cache line.
// The forwarder variant used by l2fwd-xchg is even smaller (see Minimal).
func XchgPacket() *Layout {
	return New("xchg_packet", []FieldID{
		FieldBufAddr, FieldDataLen, FieldPktLen, FieldVlanTCI,
		FieldNext,
		FieldAnnoPaint, FieldAnnoDstIP, FieldAnnoVLAN,
	})
}

// MinimalXchg returns the two-field descriptor of the paper's l2fwd-xchg
// sample (buffer address + packet length).
func MinimalXchg() *Layout {
	return New("xchg_minimal", []FieldID{FieldBufAddr, FieldDataLen})
}

// VLIBBuffer returns VPP's vlib_buffer_t-style layout: the rte_mbuf region
// is overlaid, and the fields VPP actually uses are copy-converted into a
// vector-friendly area after it (Copying+Overlaying, the 2bis arrow in
// Figure 2). The copied fields are distinct FieldIDs from the mbuf ones in
// spirit, but we reuse the anno/extra slots for the converted block.
func VLIBBuffer() *Layout {
	return Extend(PadTo(rteMbufRxLine(), 128), "vlib_buffer", []FieldID{
		FieldNext, FieldMacHeader, FieldNetworkHeader,
		FieldAnnoDstIP, FieldAnnoFlowID, FieldAnnoExtra,
	})
}
