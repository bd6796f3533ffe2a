// Element runtime: the push-port execution model, the element registry,
// and the dispatch machinery whose cost structure PacketMill's passes
// transform.
package click

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"packetmill/internal/dpdk"
	"packetmill/internal/layout"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/pktbuf"
	"packetmill/internal/telemetry"
)

// MetadataModel selects how the framework manages packet metadata (§2.2).
type MetadataModel int

// The three models of Figure 2, in the paper's order.
const (
	// Copying: driver fills rte_mbuf; the framework copies the useful
	// fields into its own Packet descriptor (FastClick default).
	Copying MetadataModel = iota
	// Overlaying: the framework descriptor overlays the rte_mbuf
	// (FastClick-Light / BESS style).
	Overlaying
	// XChange: the driver writes the framework descriptor directly and
	// exchanges buffers with the application (PacketMill).
	XChange
)

func (m MetadataModel) String() string {
	switch m {
	case Copying:
		return "copying"
	case Overlaying:
		return "overlaying"
	case XChange:
		return "x-change"
	}
	return "?"
}

// OptLevel records which PacketMill source-code optimizations are applied
// to a build. The zero value is the vanilla binary.
type OptLevel struct {
	// Devirtualize replaces virtual element calls with direct calls
	// (click-devirtualize).
	Devirtualize bool
	// ConstEmbed embeds constant element parameters into the code.
	ConstEmbed bool
	// StaticGraph allocates elements statically & contiguously and
	// inlines the fully-known call graph.
	StaticGraph bool
	// ReorderMeta applies the IR pass reordering the metadata struct by
	// the NF's access profile (Copying model only, like the paper).
	ReorderMeta bool
}

// AllOpts returns every source-code optimization enabled.
func AllOpts() OptLevel {
	return OptLevel{Devirtualize: true, ConstEmbed: true, StaticGraph: true, ReorderMeta: true}
}

// String renders the enabled passes ("vanilla" when none).
func (o OptLevel) String() string {
	var parts []string
	if o.Devirtualize {
		parts = append(parts, "devirtualize")
	}
	if o.ConstEmbed {
		parts = append(parts, "constembed")
	}
	if o.StaticGraph {
		parts = append(parts, "staticgraph")
	}
	if o.ReorderMeta {
		parts = append(parts, "reorder")
	}
	if len(parts) == 0 {
		return "vanilla"
	}
	return strings.Join(parts, "+")
}

// CallKind returns the dispatch flavour this optimization level gives
// element hand-offs.
func (o OptLevel) CallKind() machine.CallKind {
	switch {
	case o.StaticGraph:
		return machine.CallInlined
	case o.Devirtualize:
		return machine.CallDirect
	default:
		return machine.CallVirtual
	}
}

// ExecCtx is threaded through every Push: the core to charge, the current
// simulated time, and the build's execution parameters.
type ExecCtx struct {
	Core *machine.Core
	Now  float64
	Rt   *Router
	// Tel attributes charged work to datapath spans; nil (the default)
	// disables attribution at the cost of one branch per hook.
	Tel *telemetry.Tracker
}

// Element is the behaviour contract. Elements process batches arriving on
// an input port and push results through their output ports.
type Element interface {
	// Class returns the Click class name.
	Class() string
	// Configure parses arguments at build time.
	Configure(args []string, bc *BuildCtx) error
	// Push processes a batch arriving on input port.
	Push(ec *ExecCtx, port int, b *pktbuf.Batch)
	// NOutputs/NInputs bound the port numbers (‑1 = unlimited).
	NOutputs() int
	NInputs() int
}

// BatchElement is implemented by elements that process whole batches
// natively; others are driven packet-at-a-time through a virtual
// simple_action in the vanilla binary, which is exactly the per-packet
// dispatch cost click-devirtualize removes.
type BatchElement interface {
	BatchAware() bool
}

// Task is implemented by source elements the driver schedules
// (FromDPDKDevice).
type Task interface {
	// RunTask polls once; returns work done (packets moved).
	RunTask(ec *ExecCtx) int
}

// factory builds a fresh element of a class.
type factory func() Element

var registry = map[string]factory{}

// Register adds an element class to the global registry; element packages
// call this from init().
func Register(class string, f factory) {
	if _, dup := registry[class]; dup {
		panic(fmt.Sprintf("click: element class %q registered twice", class))
	}
	registry[class] = f
}

// NewElement instantiates a registered class.
func NewElement(class string) (Element, error) {
	f, ok := registry[class]
	if !ok {
		return nil, fmt.Errorf("click: unknown element class %q", class)
	}
	return f(), nil
}

// IsSourceClass reports whether class is a schedulable source element
// (implements Task and has no inputs) — what graph analyses use as
// reachability roots. Sink-side tasks (e.g. ToDPDKDevice's TX flush)
// are schedulable but originate no packets.
func IsSourceClass(class string) bool {
	f, ok := registry[class]
	if !ok {
		return false
	}
	el := f()
	_, isTask := el.(Task)
	return isTask && el.NInputs() <= 0
}

// IsTaskClass reports whether class is schedulable (implements Task),
// source or sink side. The driver's round-robin order follows the
// declaration order of these elements, so graph-layout passes must keep
// their relative order to leave scheduling untouched.
func IsTaskClass(class string) bool {
	f, ok := registry[class]
	if !ok {
		return false
	}
	_, isTask := f().(Task)
	return isTask
}

// Classes returns the registered class names, sorted.
func Classes() []string {
	out := make([]string, 0, len(registry))
	for c := range registry {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Instance is one wired element: behaviour + placement + ports.
type Instance struct {
	Name  string
	El    Element
	State memsim.Object // element object placement (heap or static)
	// Outputs are the wired output ports.
	Outputs []*OutputPort
	// Inputs are the wired upstream references (used by pull consumers).
	Inputs []*InputPort
	// NIn is the wired input-port count.
	NIn int
	// batchAware caches the BatchElement query.
	batchAware bool
	// paramAddrs are the simulated addresses of the element's stored
	// configuration parameters (loaded per run unless const-embedded).
	paramAddrs []memsim.Addr
}

// OutputPort carries a batch to the next element, charging dispatch
// according to the build's optimization level — the load-bearing indirection
// of the whole reproduction.
type OutputPort struct {
	To     *Instance
	ToPort int
	// Kind is the dispatch flavour (set by the mill's passes).
	Kind machine.CallKind
	// ConnAddr is the connection record Click's dynamic graph walks
	// (heap-allocated Port object); the static graph embeds connections
	// in code and skips it.
	ConnAddr memsim.Addr
	// Embedded marks a static-graph connection (no record to read).
	Embedded bool
}

// Push hands a batch to the downstream element.
//
// Cost model, mirroring FastClick's generated code:
//   - dynamic graph: read the connection record, then dispatch
//     (virtual in vanilla, direct after click-devirtualize);
//   - static graph: the connection is a compile-time constant and the
//     callee body is inlined — no record read, no call;
//   - non-batch-aware callees additionally pay a per-packet virtual
//     simple_action dispatch in the vanilla binary (devirtualization
//     turns those into direct calls; the static graph inlines them).
func (op *OutputPort) Push(ec *ExecCtx, b *pktbuf.Batch) {
	if b.Empty() {
		return
	}
	core := ec.Core
	if !op.Embedded {
		core.Load(op.ConnAddr, 16)
	}
	core.Call(op.Kind, op.To.State.Base)
	if !op.To.batchAware && op.Kind != machine.CallInlined {
		perPkt := op.Kind
		for i := 0; i < b.Count(); i++ {
			core.Call(perPkt, op.To.State.Base)
		}
	}
	// Per-packet hand-off overhead: the generic push path (batch list
	// maintenance, annotation bookkeeping, bounds checks). Constant
	// embedding trims the loop; the static graph's inlining lets the
	// compiler elide most of it, including the pipeline bubbles.
	instr, bubble := ec.Rt.HopCost()
	n := float64(b.Count())
	core.Compute(instr * n)
	core.Cycles(bubble * n)
	// The callee body runs under its own span so graph-walk profiles
	// attribute cycles to the element that spends them; the hand-off cost
	// above stays with the caller, like a call instruction in perf.
	ec.Tel.Enter(telemetry.StageEngine, op.To.Name)
	ec.Tel.AddPackets(b.Count())
	op.To.El.Push(ec, op.ToPort, b)
	ec.Tel.Exit()
}

// Output pushes b out of inst's port i; elements call this from Push.
func (inst *Instance) Output(ec *ExecCtx, i int, b *pktbuf.Batch) {
	if i < 0 || i >= len(inst.Outputs) || inst.Outputs[i] == nil {
		// Unconnected output: Click discards (with a warning at config
		// time); we silently drop and recycle nothing — the packets
		// are lost to the run, like a dangling port.
		return
	}
	inst.Outputs[i].Push(ec, b)
}

// LoadParam charges the read of stored parameter idx unless the build
// embedded constants; it returns nothing because parameter *values* are
// host-side state in each element — only the cost is modelled.
func (inst *Instance) LoadParam(ec *ExecCtx, idx int) {
	if ec.Rt.Opt.ConstEmbed {
		return
	}
	if idx < len(inst.paramAddrs) {
		ec.Core.Load(inst.paramAddrs[idx], 8)
	}
}

// TouchState charges a read of [off, off+n) of the element's own state.
func (inst *Instance) TouchState(ec *ExecCtx, off, n uint64) {
	ec.Core.Load(inst.State.Base+memsim.Addr(off), n)
}

// StoreState charges a write of [off, off+n) of the element's own state.
func (inst *Instance) StoreState(ec *ExecCtx, off, n uint64) {
	ec.Core.Store(inst.State.Base+memsim.Addr(off), n)
}

// Base provides the boilerplate every element embeds: a back-pointer to
// its wired Instance and permissive default port bounds.
type Base struct {
	Inst *Instance
}

// InitBase records the instance; elements call it first in Configure.
func (b *Base) InitBase(bc *BuildCtx) { b.Inst = bc.Self }

// NInputs defaults to unlimited.
func (b *Base) NInputs() int { return -1 }

// NOutputs defaults to unlimited.
func (b *Base) NOutputs() int { return -1 }

// CheckedOutput pushes batch out of port i when that port is wired, and
// kills it otherwise — Click's convention for "bad packet" ports.
func (b *Base) CheckedOutput(ec *ExecCtx, i int, batch *pktbuf.Batch) {
	if batch.Empty() {
		return
	}
	if i < len(b.Inst.Outputs) && b.Inst.Outputs[i] != nil {
		b.Inst.Outputs[i].Push(ec, batch)
		return
	}
	ec.Rt.Kill(ec, batch)
}

// BuildCtx is what elements see while configuring: placement arenas, DPDK
// ports, the metadata model, and shared facilities.
type BuildCtx struct {
	Heap   *memsim.Heap
	Static *memsim.Arena
	Huge   *memsim.Arena
	// UseStatic places element state in the static arena (StaticGraph).
	UseStatic bool
	// Ports maps DPDK port numbers to PMD ports.
	Ports map[int]*dpdk.Port
	// Model is the metadata-management model of this build.
	Model MetadataModel
	// PacketPool is the framework descriptor pool (Copying model).
	PacketPool *PacketPool
	// MetaLayout is the framework Packet layout in use.
	MetaLayout *layout.Layout
	// Prof receives the metadata access profile when profiling is on.
	Prof *layout.OrderProfile
	// Self is the instance being configured (set by the builder before
	// Configure runs) so elements can allocate state through it.
	Self *Instance
	// Rand seed for elements that need deterministic randomness.
	Seed uint64
	// Prewarm, when non-nil, installs a long-lived region into the LLC
	// as initialization-phase state (see cache.System.Prewarm).
	Prewarm func(addr memsim.Addr, size uint64)
	// Core is this replica's index among Cores replicas (Cores 0 means
	// 1). An element that draws from a resource the replicas share on
	// the wire — the NAT's external ports — takes the share Core owns,
	// so no two cores hand out the same value.
	Core, Cores int
}

// AllocState places the element object (base state + extra bytes) and
// records parameter slots. Click's Element base object is ~160 B; extra
// is element-specific state.
func (bc *BuildCtx) AllocState(extra uint64, nParams int) memsim.Object {
	const elementBaseBytes = 160
	size := elementBaseBytes + extra
	var base memsim.Addr
	if bc.UseStatic {
		base = bc.Static.Alloc(size, memsim.CacheLineSize)
	} else {
		base = bc.Heap.Alloc(size)
	}
	obj := memsim.Object{Base: base, Size: size}
	bc.Self.State = obj
	bc.Self.paramAddrs = nil
	for i := 0; i < nParams; i++ {
		bc.Self.paramAddrs = append(bc.Self.paramAddrs, base+memsim.Addr(64+8*i))
	}
	return obj
}

// AllocAux places a bulk auxiliary region (tables, pools) owned by the
// element. Big tables always live off the element object; placement
// follows the same static/heap decision.
func (bc *BuildCtx) AllocAux(size uint64) memsim.Addr {
	if bc.UseStatic {
		return bc.Static.Alloc(size, memsim.CacheLineSize)
	}
	return bc.Heap.Alloc(size)
}

// ParseInt parses a Click integer argument.
func ParseInt(s string) (int, error) {
	v, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("click: bad integer %q", s)
	}
	return v, nil
}
