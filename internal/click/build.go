// Builder and driver: wiring a parsed Graph into a runnable Router and
// scheduling its source tasks — the "Click binary" stage of Figure 3.
package click

import (
	"fmt"

	"packetmill/internal/dpdk"
	"packetmill/internal/layout"
	"packetmill/internal/memsim"
	"packetmill/internal/overload"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
)

// BuildEnv supplies everything a build needs beyond the configuration.
type BuildEnv struct {
	Opt   OptLevel
	Model MetadataModel

	Heap   *memsim.Heap
	Static *memsim.Arena
	Huge   *memsim.Arena

	// Ports maps Click PORT numbers to PMD ports (created by the
	// testbed with the binding matching Model).
	Ports map[int]*dpdk.Port

	// MetaLayout overrides the model's default framework layout — how a
	// reordered layout from the IR pass is applied.
	MetaLayout *layout.Layout

	// Profile turns on metadata access profiling (input to the reorder
	// pass).
	Profile bool

	// PacketPoolSize sizes the Copying-model descriptor pool (default
	// 2048, FastClick's per-thread pool size).
	PacketPoolSize int

	// Prewarm forwards to BuildCtx (see cache.System.Prewarm).
	Prewarm func(addr memsim.Addr, size uint64)

	Seed uint64

	// Core is this replica's index among Cores run-to-completion
	// replicas of the graph (forwarded to BuildCtx; Cores 0 means 1).
	Core, Cores int
}

// Router is a wired, runnable network function — the equivalent of the
// specialized binary Figure 3 produces.
type Router struct {
	Graph *Graph
	Opt   OptLevel
	Model MetadataModel

	Instances []*Instance
	// Conns is the wired connection list in configuration order
	// (exported for the mill's IR dump).
	Conns  []*OutputPort
	byName map[string]*Instance
	sched  []schedEntry

	PacketPool *PacketPool
	MetaLayout *layout.Layout
	Prof       *layout.OrderProfile

	// SchedInstr is the driver-loop overhead charged per task run.
	SchedInstr float64

	// Recycle returns a dead packet's buffer and descriptor(s) to their
	// pools; the testbed wires it to the build's mempool/binding.
	// Elements call it for every packet they kill.
	Recycle func(ec *ExecCtx, p *pktbuf.Packet)
	// Drops counts killed packets.
	Drops uint64
	// DropStats breaks Drops (and element-level overload drops) down by
	// reason, so the conservation check rx == tx + Σ drops can attribute
	// every lost packet.
	DropStats stats.DropCounters

	// Tel, when non-nil, attributes this router's work to spans; the
	// driver loop installs it into every ExecCtx it runs.
	Tel *telemetry.Tracker

	// Overload is the core's overload control plane, or nil. The I/O and
	// Queue elements consult it for backpressure (lossless pipelines
	// raise/lower pressure at their watermarks; the PMD RX pauses while
	// pressure is held) and the PMD prices admissions against it.
	Overload *overload.Controller
}

// Kill recycles every packet in b (an element dropping traffic).
func (rt *Router) Kill(ec *ExecCtx, b *pktbuf.Batch) {
	rt.KillReason(ec, b, stats.DropEngine)
}

// KillReason is Kill with an explicit drop reason for the taxonomy.
func (rt *Router) KillReason(ec *ExecCtx, b *pktbuf.Batch, reason stats.DropReason) {
	b.ForEach(ec.Core, func(p *pktbuf.Packet) bool {
		rt.KillPacket(ec, p, reason)
		return true
	})
}

// KillPacket drops a single packet with accounting: taxonomy counter,
// flight-recorder drop event when the packet is being traced, recycle.
// Every engine-side drop path funnels through here so no drop can lose
// its trace or its reason.
func (rt *Router) KillPacket(ec *ExecCtx, p *pktbuf.Packet, reason stats.DropReason) {
	rt.Drops++
	rt.DropStats.Add(reason, 1)
	if p.TraceID != 0 {
		ec.Tel.Trace().Drop(p.TraceID, reason.String(), p.Len())
		p.TraceID = 0
	}
	if rt.Recycle != nil {
		rt.Recycle(ec, p)
	}
}

// DefaultMetaLayout returns the framework descriptor layout a metadata
// model uses out of the box.
func DefaultMetaLayout(m MetadataModel) *layout.Layout {
	switch m {
	case Overlaying:
		return layout.OverlayPacket()
	case XChange:
		return layout.XchgPacket()
	default:
		return layout.ClickPacket()
	}
}

// Build wires a parsed graph into a Router.
func Build(g *Graph, env BuildEnv) (*Router, error) {
	if env.Heap == nil {
		env.Heap = memsim.NewHeap()
	}
	if env.Static == nil {
		env.Static = memsim.NewArena("static", memsim.StaticBase, 256<<20)
	}
	if env.Huge == nil {
		env.Huge = memsim.NewArena("huge", memsim.HugeBase, 1<<30)
	}
	if env.PacketPoolSize <= 0 {
		env.PacketPoolSize = 2048
	}
	rt := &Router{
		Graph:      g,
		Opt:        env.Opt,
		Model:      env.Model,
		byName:     map[string]*Instance{},
		MetaLayout: env.MetaLayout,
		SchedInstr: 24,
	}
	if rt.MetaLayout == nil {
		rt.MetaLayout = DefaultMetaLayout(env.Model)
	}
	if env.Profile {
		rt.Prof = &layout.OrderProfile{}
	}

	bc := &BuildCtx{
		Heap:       env.Heap,
		Static:     env.Static,
		Huge:       env.Huge,
		UseStatic:  env.Opt.StaticGraph,
		Ports:      env.Ports,
		Model:      env.Model,
		MetaLayout: rt.MetaLayout,
		Prof:       rt.Prof,
		Seed:       env.Seed,
		Prewarm:    env.Prewarm,
		Core:       env.Core,
		Cores:      env.Cores,
	}
	if env.Model == Copying {
		pp, err := NewPacketPool(env.PacketPoolSize, rt.MetaLayout, bc, rt.Prof)
		if err != nil {
			return nil, err
		}
		bc.PacketPool = pp
		rt.PacketPool = pp
	}

	// Instantiate and configure every element.
	for _, decl := range g.Elements {
		el, err := NewElement(decl.Class)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", decl.Name, err)
		}
		inst := &Instance{Name: decl.Name, El: el}
		if be, ok := el.(BatchElement); ok {
			inst.batchAware = be.BatchAware()
		} else {
			inst.batchAware = true
		}
		bc.Self = inst
		if err := el.Configure(decl.Args, bc); err != nil {
			return nil, fmt.Errorf("%s :: %s: %w", decl.Name, decl.Class, err)
		}
		if inst.State.Size == 0 {
			// Element did not place itself; give it the base object.
			bc.AllocState(0, len(decl.Args))
		}
		rt.Instances = append(rt.Instances, inst)
		rt.byName[decl.Name] = inst
	}

	// Wire connections.
	for _, c := range g.Conns {
		from, ok := rt.byName[c.From]
		if !ok {
			return nil, fmt.Errorf("click: connection from unknown element %q", c.From)
		}
		to, ok := rt.byName[c.To]
		if !ok {
			return nil, fmt.Errorf("click: connection to unknown element %q", c.To)
		}
		if n := from.El.NOutputs(); n >= 0 && c.FromPort >= n {
			return nil, fmt.Errorf("click: %s has no output %d", c.From, c.FromPort)
		}
		if n := to.El.NInputs(); n >= 0 && c.ToPort >= n {
			return nil, fmt.Errorf("click: %s has no input %d", c.To, c.ToPort)
		}
		for len(from.Outputs) <= c.FromPort {
			from.Outputs = append(from.Outputs, nil)
		}
		if from.Outputs[c.FromPort] != nil {
			return nil, fmt.Errorf("click: output %s[%d] connected twice", c.From, c.FromPort)
		}
		op := &OutputPort{
			To:       to,
			ToPort:   c.ToPort,
			Kind:     env.Opt.CallKind(),
			Embedded: env.Opt.StaticGraph,
		}
		if !op.Embedded {
			op.ConnAddr = env.Heap.Alloc(32) // Click Port object
		}
		if c.ToPort+1 > to.NIn {
			to.NIn = c.ToPort + 1
		}
		rt.Conns = append(rt.Conns, op)
		from.Outputs[c.FromPort] = op

		// Mirror the wiring on the input side for pull consumers.
		for len(to.Inputs) <= c.ToPort {
			to.Inputs = append(to.Inputs, nil)
		}
		to.Inputs[c.ToPort] = &InputPort{
			From: from, FromPort: c.FromPort,
			Kind: op.Kind, ConnAddr: op.ConnAddr, Embedded: op.Embedded,
		}
	}

	if err := validatePullAgreement(rt, g); err != nil {
		return nil, err
	}

	// Collect driver tasks into the stride scheduler.
	hasSource := false
	for _, inst := range rt.Instances {
		if t, ok := inst.El.(Task); ok {
			tickets := DefaultTickets
			if tt, ok := inst.El.(TaskTickets); ok && tt.Tickets() > 0 {
				tickets = tt.Tickets()
			}
			rt.sched = append(rt.sched, schedEntry{
				task:   t,
				stride: stride1 / float64(tickets),
			})
			if inst.El.NInputs() <= 0 {
				hasSource = true
			}
		}
	}
	if !hasSource {
		return nil, fmt.Errorf("click: configuration has no schedulable source element")
	}
	return rt, nil
}

// Stride scheduling, as in Click's task scheduler: each task advances a
// pass value by stride1/tickets per run, and the driver always runs the
// minimum-pass task. Equal tickets degenerate to round-robin; a task with
// twice the tickets runs twice as often.
const (
	stride1        = 1 << 20
	DefaultTickets = 1024
)

// TaskTickets is implemented by task elements that want a non-default
// scheduling share (e.g. Unqueue's TICKETS argument).
type TaskTickets interface {
	Tickets() int
}

type schedEntry struct {
	task   Task
	pass   float64
	stride float64
}

// HopCost returns the per-packet overhead of one element hand-off under
// this build's optimization level: straight-line instructions plus
// pipeline bubbles (frontend/pointer-chase stalls the inliner removes).
func (rt *Router) HopCost() (instr, bubbleCyc float64) {
	switch {
	case rt.Opt.StaticGraph:
		return 4, 0
	case rt.Opt.ConstEmbed:
		return 7, 3
	default:
		return 8, 3
	}
}

// Instance returns the wired instance by name (nil if absent).
func (rt *Router) Instance(name string) *Instance { return rt.byName[name] }

// Step runs one driver round: as many task invocations as there are
// tasks, each time picking the minimum-pass task (stride scheduling). It
// returns the number of packets moved.
func (rt *Router) Step(ec *ExecCtx) int {
	if ec.Tel == nil {
		ec.Tel = rt.Tel
	}
	// The driver span is the attribution root: every charge in the round
	// lands in it unless a more specific stage span is open, so the span
	// set partitions the core's busy cycles.
	ec.Tel.Enter(telemetry.StageDriver, "driver")
	moved := 0
	for i := 0; i < len(rt.sched); i++ {
		min := 0
		for j := 1; j < len(rt.sched); j++ {
			if rt.sched[j].pass < rt.sched[min].pass {
				min = j
			}
		}
		e := &rt.sched[min]
		e.pass += e.stride
		ec.Core.Compute(rt.SchedInstr)
		moved += e.task.RunTask(ec)
	}
	ec.Tel.Exit()
	return moved
}

// Tasks returns the schedulable tasks.
func (rt *Router) Tasks() []Task {
	out := make([]Task, len(rt.sched))
	for i := range rt.sched {
		out[i] = rt.sched[i].task
	}
	return out
}
