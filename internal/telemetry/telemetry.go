// Package telemetry is the run-wide observability layer: it attributes
// the simulated perf counters (cycles, instructions, LLC traffic) to the
// datapath stage and Click element that spent them — the way the paper
// reads `perf annotate` in §4 — and aggregates per-queue, per-core, and
// interval-snapshot counters into one machine-readable Report.
//
// The core abstraction is the Tracker: a per-core span stack. Entering a
// span snapshots the core's counters; the delta accumulated while a span
// is on top of the stack is charged to that span's bucket *exclusively*
// (a nested span pauses its parent), so the buckets partition the core's
// busy time — their sum equals the core total by construction, which is
// what makes the "attribution sums to the core totals within 1%"
// invariant checkable instead of aspirational.
//
// A nil *Tracker is valid and free: every method nil-checks, so a
// non-telemetered run pays one predictable branch per hook site.
package telemetry

import (
	"encoding/json"
	"sort"

	"packetmill/internal/machine"
	"packetmill/internal/trace"
)

// Stage identifies a datapath stage, mirroring the paper's breakdown of
// where a packet's cycles go: the PMD receive path, the metadata
// conversion functions, the element graph, and the PMD transmit path.
// StageDriver absorbs the scheduler loop and anything not inside a more
// specific span.
type Stage uint8

// Stages in pipeline order.
const (
	StageDriver Stage = iota
	StageRx
	StageConv
	StageEngine
	StageTx
	NumStages
)

var stageNames = [NumStages]string{"driver", "pmd-rx", "conversion", "engine", "pmd-tx"}

// String names the stage the way reports print it.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage-?"
}

// Bucket accumulates the counters attributed to one (stage, name) pair on
// one core. Cycles are busy cycles (execution + memory stalls) in
// core-clock terms; LLC counters are the core's own demand traffic.
type Bucket struct {
	Stage   Stage
	Name    string
	Visits  uint64 // spans entered
	Packets uint64 // packets the span owner reported moving
	Delta   machine.Counters
	// Dur is the distribution of per-visit *exclusive* span durations
	// in nanoseconds (core-clock time, so ∝ cycles on sim runs). It
	// feeds the per-element latency percentiles in the report; merging
	// the per-core histograms is order-independent.
	Dur *trace.Hist
}

func (b *Bucket) add(d machine.Counters) {
	b.Delta.Instructions += d.Instructions
	b.Delta.BusyCycles += d.BusyCycles
	b.Delta.WallNS += d.WallNS
	b.Delta.IdleNS += d.IdleNS
	b.Delta.TLBMisses += d.TLBMisses
	b.Delta.LLCLoads += d.LLCLoads
	b.Delta.LLCLoadMisses += d.LLCLoadMisses
	b.Delta.LLCStores += d.LLCStores
	b.Delta.LLCStoreMisses += d.LLCStoreMisses
}

type bucketKey struct {
	stage Stage
	name  string
}

type frame struct {
	b     *Bucket
	start machine.Counters
	// accNS accumulates the wall-ns this visit already charged to the
	// bucket before nested spans paused it, so Exit can record the
	// visit's full exclusive duration into b.Dur in one observation.
	accNS float64
	// parts marks a split span (EnterShares): b is then a scratch
	// accumulator whose delta is distributed across parts at Exit.
	parts []SharePart
}

// Tracker attributes one core's counter movement to spans. It is not
// safe for concurrent use; the simulation is single-threaded per core.
type Tracker struct {
	core    *machine.Core
	stack   []frame
	buckets map[bucketKey]*Bucket
	order   []bucketKey
	trace   *trace.CoreTrace
	// scratch pools split-span accumulators by nesting depth (see
	// EnterShares); splitDepth counts the open split spans.
	scratch    []*Bucket
	splitDepth int
}

// NewTracker attaches a tracker to a core.
func NewTracker(core *machine.Core) *Tracker {
	return &Tracker{core: core, buckets: map[bucketKey]*Bucket{}}
}

// Core returns the tracked core (nil for a nil tracker).
func (t *Tracker) Core() *machine.Core {
	if t == nil {
		return nil
	}
	return t.core
}

// SetTrace attaches the core's flight recorder: every span boundary is
// mirrored into it, giving the trace per-element events without any
// per-element edits. Safe to leave unset (and on a nil tracker).
func (t *Tracker) SetTrace(ct *trace.CoreTrace) {
	if t != nil {
		t.trace = ct
	}
}

// Trace returns the attached flight recorder (nil when tracing is off
// or the tracker is nil), for drop/fault hooks that need it.
func (t *Tracker) Trace() *trace.CoreTrace {
	if t == nil {
		return nil
	}
	return t.trace
}

func (t *Tracker) bucket(stage Stage, name string) *Bucket {
	k := bucketKey{stage, name}
	b, ok := t.buckets[k]
	if !ok {
		b = &Bucket{Stage: stage, Name: name, Dur: trace.NewHist()}
		t.buckets[k] = b
		t.order = append(t.order, k)
	}
	return b
}

// Enter opens a span attributed to (stage, name). The parent span (if
// any) stops accumulating until the matching Exit.
func (t *Tracker) Enter(stage Stage, name string) {
	if t == nil {
		return
	}
	now := t.core.Snapshot()
	if n := len(t.stack); n > 0 {
		top := &t.stack[n-1]
		top.b.add(now.Delta(top.start))
		top.accNS += now.WallNS - top.start.WallNS
	}
	b := t.bucket(stage, name)
	b.Visits++
	t.stack = append(t.stack, frame{b: b, start: now})
	t.trace.SpanEnter()
}

// Exit closes the innermost span, charging its exclusive delta, and
// resumes the parent.
func (t *Tracker) Exit() {
	if t == nil {
		return
	}
	n := len(t.stack)
	if n == 0 {
		return
	}
	now := t.core.Snapshot()
	top := &t.stack[n-1]
	top.b.add(now.Delta(top.start))
	durNS := top.accNS + now.WallNS - top.start.WallNS
	if top.parts != nil {
		t.settleSplit(top, durNS)
	} else {
		top.b.Dur.Record(durNS)
	}
	t.trace.SpanExit(top.b.Stage.String(), top.b.Name)
	t.stack = t.stack[:n-1]
	if n > 1 {
		t.stack[n-2].start = now
	}
}

// AddPackets credits n packets to the innermost open span (how per-stage
// cycles/packet is derived).
func (t *Tracker) AddPackets(n int) {
	if t == nil || n <= 0 {
		return
	}
	if m := len(t.stack); m > 0 {
		t.stack[m-1].b.Packets += uint64(n)
	}
}

// Depth reports the open-span count (for tests and assertions).
func (t *Tracker) Depth() int {
	if t == nil {
		return 0
	}
	return len(t.stack)
}

// Buckets returns the accumulated buckets in first-seen order.
func (t *Tracker) Buckets() []*Bucket {
	if t == nil {
		return nil
	}
	out := make([]*Bucket, 0, len(t.order))
	for _, k := range t.order {
		out = append(out, t.buckets[k])
	}
	return out
}

// AttributedCycles sums the busy cycles charged to all buckets, in
// first-seen order: float addition is not associative, so a map-order
// sum would change the report's last digits between identical runs.
func (t *Tracker) AttributedCycles() float64 {
	if t == nil {
		return 0
	}
	var sum float64
	for _, k := range t.order {
		sum += t.buckets[k].Delta.BusyCycles
	}
	return sum
}

// --- Report ---

// Schema is the version tag stamped into every JSON report.
const Schema = "packetmill/telemetry/v1"

// RunConfig echoes the run's configuration into the report so a result
// file is self-describing.
type RunConfig struct {
	Config    string  `json:"config,omitempty"` // builtin name or file
	Model     string  `json:"model"`
	Opt       string  `json:"opt"`
	FreqGHz   float64 `json:"freq_ghz"`
	Cores     int     `json:"cores"`
	NICs      int     `json:"nics"`
	RateGbps  float64 `json:"rate_gbps"`
	Packets   int     `json:"packets"`
	FixedSize int     `json:"fixed_size,omitempty"`
	Seed      uint64  `json:"seed"`
	Faults    string  `json:"faults,omitempty"`
}

// Totals is the run's end-to-end summary.
type Totals struct {
	Offered      uint64  `json:"offered"`
	TxWire       uint64  `json:"tx_wire"`
	Dropped      uint64  `json:"dropped"`
	Gbps         float64 `json:"gbps"`
	Mpps         float64 `json:"mpps"`
	DurationNS   float64 `json:"duration_ns"`
	Instructions uint64  `json:"instructions"`
	BusyCycles   float64 `json:"busy_cycles"`
	IPC          float64 `json:"ipc"`
	LLCLoads     uint64  `json:"llc_loads"`
	LLCMisses    uint64  `json:"llc_load_misses"`
	TLBMisses    uint64  `json:"tlb_misses"`
}

// LatencyUS summarizes a latency distribution. This type is the single
// place latency units are defined for every report surface (Report,
// -report json, the experiments tables, and the /report endpoint):
//
//   - All values are MICROSECONDS.
//   - On simulated runs time is core-clock time (cycles ÷ frequency);
//     on wire runs it is wall-clock time.
//   - Run-level latency is wire arrival → TX departure, measured over
//     the FULL post-warmup run (full-run totals, not interval-end
//     snapshots). Mean/min/max are exact; percentiles come from the
//     log-bucketed histogram (≤3% relative quantization error).
//   - Per-element latency (ElementReport.Latency) is the distribution
//     of per-visit *exclusive* span durations.
type LatencyUS struct {
	Count uint64  `json:"count"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// LatencyFromHist digests a nanosecond histogram into the report's
// microsecond summary.
func LatencyFromHist(h *trace.Hist) LatencyUS {
	s := h.Summary()
	return LatencyUS{
		Count: s.Count,
		Min:   s.Min / 1e3,
		Mean:  s.Mean / 1e3,
		P50:   s.P50 / 1e3,
		P90:   s.P90 / 1e3,
		P99:   s.P99 / 1e3,
		P999:  s.P999 / 1e3,
		Max:   s.Max / 1e3,
	}
}

// CoreReport is one core's ledger: perf totals plus the idle/busy split.
type CoreReport struct {
	Core          int     `json:"core"`
	Instructions  uint64  `json:"instructions"`
	BusyCycles    float64 `json:"busy_cycles"`
	BusyNS        float64 `json:"busy_ns"`
	IdleNS        float64 `json:"idle_ns"`
	WallNS        float64 `json:"wall_ns"`
	IPC           float64 `json:"ipc"`
	LLCLoads      uint64  `json:"llc_loads"`
	LLCLoadMisses uint64  `json:"llc_load_misses"`
	TLBMisses     uint64  `json:"tlb_misses"`
	// AttributedCycles is the sum over this core's spans; Coverage is
	// attributed/busy (the ≥0.99 invariant).
	AttributedCycles float64 `json:"attributed_cycles"`
	Coverage         float64 `json:"coverage"`
}

// QueueReport is one (NIC, queue) pair's ledger, merged from the NIC's
// per-queue counters and the PMD port that polls it.
type QueueReport struct {
	NIC   string `json:"nic"`
	Queue int    `json:"queue"`
	Core  int    `json:"core"`
	// NIC side.
	RxDelivered     uint64 `json:"rx_delivered"`
	RxBytes         uint64 `json:"rx_bytes"`
	RxDropNoBuf     uint64 `json:"rx_drop_no_buf"`
	RxDropFull      uint64 `json:"rx_drop_ring_full"`
	RxDropRunt      uint64 `json:"rx_drop_runt"`
	TxSent          uint64 `json:"tx_sent"`
	TxBytes         uint64 `json:"tx_bytes"`
	TxDropFull      uint64 `json:"tx_drop_ring_full"`
	TxDropTransient uint64 `json:"tx_drop_transient,omitempty"`
	TxDropOversize  uint64 `json:"tx_drop_oversize,omitempty"`
	// PMD side.
	Polls           uint64 `json:"polls"`
	EmptyPolls      uint64 `json:"empty_polls"`
	RxPackets       uint64 `json:"rx_packets"`
	TxPackets       uint64 `json:"tx_packets"`
	RefillShort     uint64 `json:"refill_short"`
	RefillShortBufs uint64 `json:"refill_short_bufs"`
	PoolExhausted   uint64 `json:"pool_exhausted"`
	// End-of-run occupancy.
	Posted    uint64 `json:"posted"`
	PendingRx uint64 `json:"pending_rx"`
}

// SpanReport is one attributed bucket, flattened for JSON (per element
// and per stage views are both built from these).
type SpanReport struct {
	Core            int     `json:"core"`
	Stage           string  `json:"stage"`
	Name            string  `json:"name"`
	Visits          uint64  `json:"visits"`
	Packets         uint64  `json:"packets"`
	Cycles          float64 `json:"cycles"`
	CyclesPerPacket float64 `json:"cycles_per_packet"`
	Instructions    uint64  `json:"instructions"`
	LLCLoads        uint64  `json:"llc_loads"`
	LLCLoadMisses   uint64  `json:"llc_load_misses"`
	ShareOfCore     float64 `json:"share_of_core"`
}

// StageReport aggregates spans by stage across cores.
type StageReport struct {
	Stage           string  `json:"stage"`
	Packets         uint64  `json:"packets"`
	Cycles          float64 `json:"cycles"`
	CyclesPerPacket float64 `json:"cycles_per_packet"`
	Instructions    uint64  `json:"instructions"`
	LLCLoads        uint64  `json:"llc_loads"`
	LLCLoadMisses   uint64  `json:"llc_load_misses"`
	Share           float64 `json:"share"`
}

// ElementReport aggregates spans by element name across stages and cores.
type ElementReport struct {
	Name            string  `json:"name"`
	Stages          string  `json:"stages"`
	Visits          uint64  `json:"visits"`
	Packets         uint64  `json:"packets"`
	Cycles          float64 `json:"cycles"`
	CyclesPerPacket float64 `json:"cycles_per_packet"`
	Instructions    uint64  `json:"instructions"`
	LLCLoads        uint64  `json:"llc_loads"`
	LLCLoadMisses   uint64  `json:"llc_load_misses"`
	Share           float64 `json:"share"`
	// Latency is the per-visit exclusive-duration distribution, merged
	// across cores (units per LatencyUS).
	Latency *LatencyUS `json:"latency_us,omitempty"`
}

// Interval is one periodic snapshot: cumulative progress plus instant
// occupancy, for spotting transients (fault-window recoveries, ring
// shrink) a run-total would average away.
type Interval struct {
	TNS       float64 `json:"t_ns"`
	Offered   uint64  `json:"offered"`
	TxWire    uint64  `json:"tx_wire"`
	Mpps      float64 `json:"mpps"` // delivered rate over this interval
	PendingRx uint64  `json:"pending_rx"`
	TxBacklog uint64  `json:"tx_backlog"`
	Posted    uint64  `json:"posted"`
}

// Attribution is the report's self-check: the per-span cycle attribution
// against the measured core totals.
type Attribution struct {
	CoreBusyCycles   float64 `json:"core_busy_cycles"`
	AttributedCycles float64 `json:"attributed_cycles"`
	Coverage         float64 `json:"coverage"` // attributed / core busy
}

// Report is the whole run, machine-readable.
type Report struct {
	Schema      string            `json:"schema"`
	Config      RunConfig         `json:"config"`
	Totals      Totals            `json:"totals"`
	LatencyUS   LatencyUS         `json:"latency_us"`
	Drops       map[string]uint64 `json:"drops"`
	Cores       []CoreReport      `json:"cores"`
	Queues      []QueueReport     `json:"queues"`
	Stages      []StageReport     `json:"stages"`
	Elements    []ElementReport   `json:"elements"`
	Spans       []SpanReport      `json:"spans"`
	Attribution Attribution       `json:"attribution"`
	Intervals   []Interval        `json:"intervals,omitempty"`
	// Overload is present when the overload control plane ran: one entry
	// per core with its health lifecycle and shed/backpressure ledger.
	Overload []OverloadCoreReport `json:"overload,omitempty"`
	// Conntrack is present when a stateful element tracked flows: one
	// entry per (core, element instance) with the shard's occupancy,
	// lifecycle counters, and pressure ledger.
	Conntrack []ConntrackReport `json:"conntrack,omitempty"`
	// Flows is present when the flow-record pipeline ran: the verdict
	// roll-up and top flows of the run's record stream.
	Flows *FlowSummary `json:"flows,omitempty"`
}

// FlowSummary is the report-level roll-up of a run's flow records. The
// maps are keyed by verdict name (forwarded/dropped/shed/evicted/
// refused); the flowlog package fills the shape so telemetry stays free
// of its types.
type FlowSummary struct {
	Records        uint64            `json:"records"`
	VerdictFlows   map[string]uint64 `json:"verdict_flows"`
	VerdictPackets map[string]uint64 `json:"verdict_packets"`
	VerdictBytes   map[string]uint64 `json:"verdict_bytes"`
	// TxSidePackets + DropSidePackets split the records along the
	// conservation invariant; Unattributed is forwarded traffic no
	// tracked flow claims.
	TxSidePackets   uint64 `json:"tx_side_packets"`
	DropSidePackets uint64 `json:"drop_side_packets"`
	Unattributed    uint64 `json:"unattributed_packets,omitempty"`
	LatencySamples  uint64 `json:"latency_samples,omitempty"`
	// TopFlows are the largest flows by bytes.
	TopFlows []TopFlow `json:"top_flows,omitempty"`
}

// TopFlow is one entry of FlowSummary.TopFlows.
type TopFlow struct {
	Key        string  `json:"key"`
	Verdict    string  `json:"verdict"`
	State      string  `json:"state,omitempty"`
	Packets    uint64  `json:"packets"`
	Bytes      uint64  `json:"bytes"`
	DurationUS float64 `json:"duration_us"`
	LatAvgUS   float64 `json:"lat_avg_us,omitempty"`
}

// OverloadCoreReport is one core's overload-control-plane summary. The
// state and policy fields carry the control plane's string spellings so
// the report stays readable without the overload package's enums.
type OverloadCoreReport struct {
	Core        int    `json:"core"`
	Policy      string `json:"policy"`
	State       string `json:"state"`
	Transitions uint64 `json:"transitions"`
	// TimeInUS maps state name to microseconds spent there.
	TimeInUS map[string]float64 `json:"time_in_us"`
	AdmitOK  uint64             `json:"admit_ok"`
	Sheds    uint64             `json:"sheds"`
	Pauses   uint64             `json:"pauses"`
	PausedUS float64            `json:"paused_us"`
	// WatchdogRestarts counts drain-and-restart recoveries on this core.
	WatchdogRestarts uint64 `json:"watchdog_restarts,omitempty"`
}

// FlowReporter is implemented by elements that track flows (IPRewriter,
// ConnTracker); report assembly discovers them by interface and fills
// Core and Element itself.
type FlowReporter interface {
	FlowReport() ConntrackReport
}

// ConntrackReport is one flow-table shard's summary: a (core, element)
// pair's occupancy and lifecycle ledger. FlowTableEntries is the live
// gauge the leak satellite watches; the eviction split shows whether
// pressure fell on embryonic half-opens or real connections.
type ConntrackReport struct {
	Core    int    `json:"core"`
	Element string `json:"element"`
	// FlowTableEntries is current occupancy; Capacity the slab bound.
	FlowTableEntries uint64 `json:"flow_table_entries"`
	Capacity         uint64 `json:"capacity"`
	Insertions       uint64 `json:"insertions"`
	Lookups          uint64 `json:"lookups"`
	Hits             uint64 `json:"hits"`
	Expirations      uint64 `json:"expirations"`
	// Evictions maps eviction class (embryonic/transient/established)
	// to entries displaced under table pressure.
	Evictions      map[string]uint64 `json:"evictions,omitempty"`
	RefusedFull    uint64            `json:"refused_full,omitempty"`
	RefusedInvalid uint64            `json:"refused_invalid,omitempty"`
	// WheelLagUS is the worst timer-wheel lag observed (budgeted expiry
	// sweeps park behind wall time under a storm).
	WheelLagUS float64 `json:"wheel_lag_us,omitempty"`
	// PortsInUse/PortsRecycled are NAT-only: live external ports and
	// ports returned to the pool by expiry/eviction.
	PortsInUse    uint64 `json:"ports_in_use,omitempty"`
	PortsRecycled uint64 `json:"ports_recycled,omitempty"`
}

// JSON renders the report with stable indentation.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// BuildSpans flattens per-core trackers into span reports and fills the
// stage and element aggregates plus the attribution check. coreBusy maps
// core ID to its measured total busy cycles.
func (r *Report) BuildSpans(trackers []*Tracker, coreBusy []float64) {
	var totalBusy, totalAttr float64
	for _, b := range coreBusy {
		totalBusy += b
	}
	stageAgg := map[string]*StageReport{}
	elemAgg := map[string]*ElementReport{}
	elemStages := map[string]map[string]bool{}
	elemDur := map[string]*trace.Hist{}
	for ci, t := range trackers {
		if t == nil {
			continue
		}
		busy := 0.0
		if ci < len(coreBusy) {
			busy = coreBusy[ci]
		}
		for _, b := range t.Buckets() {
			totalAttr += b.Delta.BusyCycles
			sr := SpanReport{
				Core:          ci,
				Stage:         b.Stage.String(),
				Name:          b.Name,
				Visits:        b.Visits,
				Packets:       b.Packets,
				Cycles:        b.Delta.BusyCycles,
				Instructions:  b.Delta.Instructions,
				LLCLoads:      b.Delta.LLCLoads,
				LLCLoadMisses: b.Delta.LLCLoadMisses,
			}
			if b.Packets > 0 {
				sr.CyclesPerPacket = sr.Cycles / float64(b.Packets)
			}
			if busy > 0 {
				sr.ShareOfCore = sr.Cycles / busy
			}
			r.Spans = append(r.Spans, sr)

			sa, ok := stageAgg[sr.Stage]
			if !ok {
				sa = &StageReport{Stage: sr.Stage}
				stageAgg[sr.Stage] = sa
			}
			sa.Packets += sr.Packets
			sa.Cycles += sr.Cycles
			sa.Instructions += sr.Instructions
			sa.LLCLoads += sr.LLCLoads
			sa.LLCLoadMisses += sr.LLCLoadMisses

			ea, ok := elemAgg[sr.Name]
			if !ok {
				ea = &ElementReport{Name: sr.Name}
				elemAgg[sr.Name] = ea
				elemStages[sr.Name] = map[string]bool{}
				elemDur[sr.Name] = trace.NewHist()
			}
			elemStages[sr.Name][sr.Stage] = true
			elemDur[sr.Name].Merge(b.Dur)
			ea.Visits += sr.Visits
			ea.Packets += sr.Packets
			ea.Cycles += sr.Cycles
			ea.Instructions += sr.Instructions
			ea.LLCLoads += sr.LLCLoads
			ea.LLCLoadMisses += sr.LLCLoadMisses
		}
	}
	for s := Stage(0); s < NumStages; s++ {
		sa, ok := stageAgg[s.String()]
		if !ok {
			continue
		}
		if sa.Packets > 0 {
			sa.CyclesPerPacket = sa.Cycles / float64(sa.Packets)
		}
		if totalBusy > 0 {
			sa.Share = sa.Cycles / totalBusy
		}
		r.Stages = append(r.Stages, *sa)
	}
	names := make([]string, 0, len(elemAgg))
	for n := range elemAgg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ea := elemAgg[n]
		stages := make([]string, 0, len(elemStages[n]))
		for s := range elemStages[n] {
			stages = append(stages, s)
		}
		sort.Strings(stages)
		ea.Stages = joinComma(stages)
		if d := elemDur[n]; d.Count() > 0 {
			l := LatencyFromHist(d)
			ea.Latency = &l
		}
		if ea.Packets > 0 {
			ea.CyclesPerPacket = ea.Cycles / float64(ea.Packets)
		}
		if totalBusy > 0 {
			ea.Share = ea.Cycles / totalBusy
		}
		r.Elements = append(r.Elements, *ea)
	}
	r.Attribution = Attribution{
		CoreBusyCycles:   totalBusy,
		AttributedCycles: totalAttr,
	}
	if totalBusy > 0 {
		r.Attribution.Coverage = totalAttr / totalBusy
	}
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ","
		}
		out += p
	}
	return out
}
