// Drop accounting: a shared taxonomy of the reasons a packet can be lost
// anywhere in the datapath. Overload is a first-class operating point for
// a per-core 100-Gbps pipeline — the paper's latency knee (Fig. 1) and the
// X-Change pool-sizing rule (§3.1) are both overload phenomena — so every
// layer that sheds load (NIC rings, PMD pools, the Click driver, the fault
// engine) counts what it dropped and why, instead of panicking or losing
// packets silently. The testbed folds every layer's counters into one
// DropCounters per run and checks the conservation invariant
// rx == tx + Σ drops(by reason) after chaos runs.
package stats

import (
	"fmt"
	"strings"
)

// DropReason classifies one cause of packet loss.
type DropReason uint8

const (
	// DropEngine: the network function deliberately killed the packet
	// (filter policy, TTL expiry, no route, ...).
	DropEngine DropReason = iota
	// DropRxNoBuf: the NIC had no posted RX buffer for an arriving frame
	// (hardware drop semantics — the driver fell behind on refill).
	DropRxNoBuf
	// DropRxRingFull: the RX completion ring was full.
	DropRxRingFull
	// DropRxRunt: the frame arrived below the 60-byte Ethernet minimum
	// (the MAC discards runts before they reach a descriptor).
	DropRxRunt
	// DropPoolExhausted: a descriptor pool (X-Change exchange pool, the
	// Copying model's framework packet pool) or a mempool had nothing
	// free on the RX path — the §3.1 "pool ≥ burst + enqueued" rule
	// violated at run time.
	DropPoolExhausted
	// DropTxRingFull: the TX ring stayed full and the driver-level
	// backpressure queue overflowed. A ring refusal alone is not a loss:
	// the driver keeps the frame in its backlog and retries it.
	DropTxRingFull
	// DropWireFault: the fault engine discarded the frame on the wire
	// (random or bursty loss).
	DropWireFault
	// DropLinkDown: the frame arrived during an injected link flap.
	DropLinkDown
	// DropOverloadShed: the overload control plane's tail-drop shedder
	// refused the frame at the PMD RX boundary, before conversion cost
	// was paid.
	DropOverloadShed
	// DropOverloadRED: the RED-style probabilistic shedder dropped the
	// frame with occupancy-proportional probability.
	DropOverloadRED
	// DropOverloadPrio: the priority-aware shedder refused the frame
	// because its traffic class did not clear the occupancy threshold.
	DropOverloadPrio
	// DropOverloadRestart: the watchdog's drain-and-restart recovery
	// flushed the frame from a wedged pipeline's queues.
	DropOverloadRestart
	// DropTxTransient: a live wire send failed with a transient errno
	// (EAGAIN/ENOBUFS) and stayed failed after bounded-backoff retries.
	DropTxTransient
	// DropTxOversize: the frame exceeded the port's MTU and was refused
	// at the TX boundary — a configuration error (mismatched MTUs, a
	// missing fragmentation element), not ring congestion, so it gets
	// its own reason instead of polluting tx-ring-full.
	DropTxOversize
	// DropFlowTableFull: a stateful element's flow table refused a new
	// flow — the table is at capacity and the eviction policy found no
	// victim it was allowed to displace (everything resident outranked
	// the newcomer). Bounded state instead of unbounded growth.
	DropFlowTableFull
	// DropFlowTableNoPort: the NAT's external-port pool was exhausted —
	// every port is pinned by a live flow, so the new flow cannot be
	// given a translation.
	DropFlowTableNoPort
	// DropFlowTableInvalid: the connection tracker refused the packet as
	// inconsistent with tracked state (strict mode: e.g. a non-SYN TCP
	// segment for a flow the table has never seen).
	DropFlowTableInvalid
	// DropTxError: a live wire send failed with a hard error (the peer
	// is gone), as opposed to congestion (tx-transient). The frame is
	// lost; its buffer still comes back to the pool.
	DropTxError

	// NumDropReasons bounds the taxonomy.
	NumDropReasons
)

var dropNames = [NumDropReasons]string{
	"engine",
	"rx-no-buf",
	"rx-ring-full",
	"rx-runt",
	"pool-exhausted",
	"tx-ring-full",
	"wire-fault",
	"link-down",
	"overload-shed",
	"overload-red",
	"overload-prio",
	"overload-restart",
	"tx-transient",
	"tx-oversize",
	"flow-table-full",
	"flow-table-no-port",
	"flow-table-invalid",
	"tx-error",
}

// IsOverload reports whether r belongs to the DropOverload* family —
// sheds and flushes initiated by the overload control plane rather than
// by resource exhaustion inside the datapath.
func (r DropReason) IsOverload() bool {
	return r >= DropOverloadShed && r <= DropOverloadRestart
}

// IsFlowTable reports whether r belongs to the DropFlowTable* family —
// packets refused by a stateful element's bounded flow table (capacity
// pressure, port exhaustion, or a strict-mode state verdict) rather than
// by the forwarding datapath itself.
func (r DropReason) IsFlowTable() bool {
	return r >= DropFlowTableFull && r <= DropFlowTableInvalid
}

// String names the reason the way run reports print it.
func (r DropReason) String() string {
	if r < NumDropReasons {
		return dropNames[r]
	}
	return fmt.Sprintf("reason-%d", uint8(r))
}

// ParseDropReason inverts String for the taxonomy's members, so
// exporters and their round-trip tests can map label values back to
// reasons.
func ParseDropReason(name string) (DropReason, bool) {
	for i, n := range dropNames {
		if n == name {
			return DropReason(i), true
		}
	}
	return NumDropReasons, false
}

// Reasons returns every member of the taxonomy in declaration order —
// the iteration source for exporters that must emit all reasons, even
// at zero, and for exhaustiveness tests.
func Reasons() []DropReason {
	out := make([]DropReason, NumDropReasons)
	for i := range out {
		out[i] = DropReason(i)
	}
	return out
}

// DropCounters is a per-reason drop ledger. The zero value is ready to
// use; layers embed one and the testbed merges them at the end of a run.
type DropCounters [NumDropReasons]uint64

// Add records n drops for reason r.
func (d *DropCounters) Add(r DropReason, n uint64) {
	if r < NumDropReasons {
		d[r] += n
	}
}

// Get returns the count for reason r.
func (d *DropCounters) Get(r DropReason) uint64 {
	if r < NumDropReasons {
		return d[r]
	}
	return 0
}

// Total sums every reason.
func (d *DropCounters) Total() uint64 {
	var t uint64
	for _, v := range d {
		t += v
	}
	return t
}

// Merge accumulates another ledger into this one.
func (d *DropCounters) Merge(o *DropCounters) {
	for i := range d {
		d[i] += o[i]
	}
}

// Reset zeroes the ledger.
func (d *DropCounters) Reset() { *d = DropCounters{} }

// Map returns the non-zero reasons keyed by name, for JSON reports.
func (d *DropCounters) Map() map[string]uint64 {
	out := map[string]uint64{}
	for i, v := range d {
		if v > 0 {
			out[DropReason(i).String()] = v
		}
	}
	return out
}

// String renders the non-zero reasons, e.g. "tx-ring-full=12 engine=3";
// "none" when nothing was dropped.
func (d *DropCounters) String() string {
	var parts []string
	for i, v := range d {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", DropReason(i), v))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}
