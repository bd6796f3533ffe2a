// Package machine models the device-under-test processor: one or more
// cores with a clock frequency, a cost ledger that converts work into
// simulated time, and perf-style counters (instructions, cycles, IPC, LLC
// loads/misses) that the experiments read back the way the paper reads
// `perf`.
//
// The accounting split mirrors real hardware:
//
//   - Computation is charged in *instructions*; a superscalar core retires
//     IssueWidth of them per cycle, so n instructions cost n/IssueWidth
//     core cycles. Core cycles shrink in wall-clock time as frequency
//     rises.
//   - Memory stalls beyond L2 are charged in *nanoseconds* (the uncore and
//     DRAM do not speed up with the core clock). L1/L2 hits are charged in
//     cycles.
//   - Idle time (polling an empty ring) advances the wall clock without
//     retiring instructions.
//
// Throughput-vs-frequency therefore comes out as
// rate(f) = 1 / (cycles/f + stall_ns), the same near-linear-with-intercept
// family the paper fits in Figure 4.
package machine

import (
	"fmt"

	"packetmill/internal/cache"
	"packetmill/internal/memsim"
)

// CostModel collects the per-operation cycle prices. The defaults were
// calibrated so that the paper's vanilla router spends ≈350 core cycles
// per packet at 3 GHz (Table 1: 8.66 Mpps on one 3-GHz core) and the
// relative savings of each optimization land in the published bands.
type CostModel struct {
	// IssueWidth is the instructions retired per un-stalled cycle.
	IssueWidth float64
	// InlinedCallCyc / DirectCallCyc / VirtualCallCyc price element hand-off.
	// A virtual call additionally loads the vtable pointer through the
	// cache hierarchy, so its total cost depends on where the element
	// object lives — that part is charged by the caller.
	InlinedCallCyc float64
	DirectCallCyc  float64
	VirtualCallCyc float64
	// BranchMispredictCyc is the flush penalty for a mispredicted
	// indirect branch; graph traversal in the vanilla binary eats a
	// fraction of these per hop.
	BranchMispredictCyc float64
	// IndirectMispredictRate is the probability a *virtual* element hop
	// mispredicts (the BTB struggles once the graph has many targets).
	IndirectMispredictRate float64
}

// DefaultCostModel returns the calibrated cost model used everywhere.
func DefaultCostModel() CostModel {
	return CostModel{
		IssueWidth:             4,
		InlinedCallCyc:         0,
		DirectCallCyc:          3,
		VirtualCallCyc:         6,
		BranchMispredictCyc:    17,
		IndirectMispredictRate: 0.08,
	}
}

// Machine is the whole DUT: the shared memory system plus its cores.
type Machine struct {
	Sys   *cache.System
	Cost  CostModel
	cores []*Core
}

// New builds a machine with the given memory system config; cores are added
// with AddCore.
func New(memCfg cache.SystemConfig, cost CostModel) *Machine {
	return &Machine{Sys: cache.NewSystem(memCfg), Cost: cost}
}

// Default returns a machine with the default memory system and cost model
// and one core at freqGHz.
func Default(freqGHz float64) (*Machine, *Core) {
	m := New(cache.DefaultSystemConfig(), DefaultCostModel())
	return m, m.AddCore(freqGHz)
}

// AddCore attaches a core running at freqGHz.
func (m *Machine) AddCore(freqGHz float64) *Core {
	if freqGHz <= 0 {
		panic(fmt.Sprintf("machine: invalid frequency %v", freqGHz))
	}
	c := &Core{
		ID:      len(m.cores),
		FreqGHz: freqGHz,
		Mem:     m.Sys.NewCore(),
		mach:    m,
	}
	m.cores = append(m.cores, c)
	return c
}

// Cores returns the attached cores.
func (m *Machine) Cores() []*Core { return m.cores }

// Core is one hardware thread's ledger.
type Core struct {
	ID      int
	FreqGHz float64
	Mem     *cache.Hierarchy
	mach    *Machine

	// Ledger. coreCycles are frequency-scaled; stallNS and idleNS are
	// wall-clock.
	coreCycles float64
	stallNS    float64
	idleNS     float64
	instrs     uint64

	// mispredictSeed drives the deterministic mispredict pattern.
	mispredictAcc float64
}

// NowNS returns this core's wall-clock position in nanoseconds.
func (c *Core) NowNS() float64 {
	return c.coreCycles/c.FreqGHz + c.stallNS + c.idleNS
}

// Compute charges n instructions of straight-line work.
func (c *Core) Compute(n float64) {
	if n <= 0 {
		return
	}
	c.instrs += uint64(n)
	c.coreCycles += n / c.mach.Cost.IssueWidth
}

// Cycles charges raw core cycles without retiring instructions
// (pipeline bubbles, fixed-function work).
func (c *Core) Cycles(n float64) {
	if n > 0 {
		c.coreCycles += n
	}
}

// Load charges a read of [addr, addr+size) through the cache hierarchy and
// returns the level that served it.
func (c *Core) Load(addr memsim.Addr, size uint64) cache.Level {
	cost := c.Mem.Access(addr, size, false)
	c.instrs++ // the load µop itself
	c.coreCycles += cost.Cycles
	c.stallNS += cost.NS
	return cost.ServedBy
}

// Store charges a write of [addr, addr+size).
func (c *Core) Store(addr memsim.Addr, size uint64) cache.Level {
	cost := c.Mem.Access(addr, size, true)
	c.instrs++
	c.coreCycles += cost.Cycles
	c.stallNS += cost.NS
	return cost.ServedBy
}

// CallKind describes how an element hop is dispatched after optimization.
type CallKind int

// Dispatch flavours, from most expensive to free.
const (
	CallVirtual CallKind = iota // vtable load + indirect branch
	CallDirect                  // direct call instruction
	CallInlined                 // no call at all
)

func (k CallKind) String() string {
	switch k {
	case CallVirtual:
		return "virtual"
	case CallDirect:
		return "direct"
	case CallInlined:
		return "inlined"
	}
	return "?"
}

// Call charges one element hand-off. For virtual dispatch, objAddr is the
// callee object whose vtable pointer must be loaded; mispredictions are
// charged deterministically at the configured rate.
func (c *Core) Call(kind CallKind, objAddr memsim.Addr) {
	switch kind {
	case CallInlined:
		c.Cycles(c.mach.Cost.InlinedCallCyc)
	case CallDirect:
		c.instrs += 2 // call + ret
		c.Cycles(c.mach.Cost.DirectCallCyc)
	case CallVirtual:
		c.instrs += 3 // load vptr, indirect call, ret
		c.Load(objAddr, 8)
		c.Cycles(c.mach.Cost.VirtualCallCyc)
		c.mispredictAcc += c.mach.Cost.IndirectMispredictRate
		if c.mispredictAcc >= 1 {
			c.mispredictAcc -= 1
			c.Cycles(c.mach.Cost.BranchMispredictCyc)
		}
	}
}

// Idle advances the wall clock to atNS if that is in the future; used when
// the core polls an empty RX ring and the next packet has not arrived yet.
func (c *Core) Idle(atNS float64) {
	now := c.NowNS()
	if atNS > now {
		c.idleNS += atNS - now
	}
}

// Counters is a perf snapshot.
type Counters struct {
	Instructions uint64
	// BusyCycles counts cycles the core was executing or stalled on
	// memory (idle excluded), in core-clock cycles at the current
	// frequency.
	BusyCycles float64
	WallNS     float64
	IdleNS     float64
	TLBMisses  uint64
	// LLC counters, scoped to this core's own demand traffic (its L2
	// misses and where they were served). Summing the per-core counters
	// over all cores reproduces the system-wide LLC totals; DMA traffic
	// is excluded from both, like perf's core LLC events.
	LLCLoads       uint64
	LLCLoadMisses  uint64
	LLCStores      uint64
	LLCStoreMisses uint64
}

// IPC returns instructions per (busy) cycle.
func (ct Counters) IPC() float64 {
	if ct.BusyCycles <= 0 {
		return 0
	}
	return float64(ct.Instructions) / ct.BusyCycles
}

// Snapshot reads the core's counters. LLC counters are scoped to this
// core's own demand traffic (see Counters); use Machine.Sys.LLCCounters
// for the system-wide view.
func (c *Core) Snapshot() Counters {
	return Counters{
		Instructions:   c.instrs,
		BusyCycles:     c.coreCycles + c.stallNS*c.FreqGHz,
		WallNS:         c.NowNS(),
		IdleNS:         c.idleNS,
		TLBMisses:      c.Mem.TLBMisses,
		LLCLoads:       c.Mem.LLCLoads,
		LLCLoadMisses:  c.Mem.LLCLoadMisses,
		LLCStores:      c.Mem.LLCStores,
		LLCStoreMisses: c.Mem.LLCStoreMisses,
	}
}

// Add accumulates another core's counters into ct, for a multicore
// total: event counts and idle time sum (LLC counters are per-core
// scoped, so their sum is the system-wide total); WallNS, a shared
// window rather than an event count, takes the longer of the two.
func (ct *Counters) Add(o Counters) {
	ct.Instructions += o.Instructions
	ct.BusyCycles += o.BusyCycles
	ct.WallNS = max(ct.WallNS, o.WallNS)
	ct.IdleNS += o.IdleNS
	ct.TLBMisses += o.TLBMisses
	ct.LLCLoads += o.LLCLoads
	ct.LLCLoadMisses += o.LLCLoadMisses
	ct.LLCStores += o.LLCStores
	ct.LLCStoreMisses += o.LLCStoreMisses
}

// Delta returns the counter difference b - a, assuming b was captured after a.
func (b Counters) Delta(a Counters) Counters {
	return Counters{
		Instructions:   b.Instructions - a.Instructions,
		BusyCycles:     b.BusyCycles - a.BusyCycles,
		WallNS:         b.WallNS - a.WallNS,
		IdleNS:         b.IdleNS - a.IdleNS,
		TLBMisses:      b.TLBMisses - a.TLBMisses,
		LLCLoads:       b.LLCLoads - a.LLCLoads,
		LLCLoadMisses:  b.LLCLoadMisses - a.LLCLoadMisses,
		LLCStores:      b.LLCStores - a.LLCStores,
		LLCStoreMisses: b.LLCStoreMisses - a.LLCStoreMisses,
	}
}
