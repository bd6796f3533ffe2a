package main

import (
	"packetmill/internal/click"
	"packetmill/internal/machine"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/trafficgen"
)

// timedPort wraps the DUT's device. Every nic.Port call is forwarded
// unchanged (embedding covers the untimed ones). With a tracer set, the
// driver-facing calls are timed as spans on the serving goroutine's
// tracer, and Poll keeps its call and batch counts plus a sampled
// RX-ring depth; without one it only forwards.
type timedPort struct {
	nic.Port
	tr *tracer

	polls, emptyPolls, polled uint64
	pendingSum, pendingN      uint64
}

// pendingEvery is the Poll period of the RX-ring depth sample.
const pendingEvery = 64

func (p *timedPort) Poll(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	p.tr.begin(spanPoll)
	n := p.Port.Poll(core, nowNS, max, pkts, descs)
	p.tr.end()
	p.countPoll(n)
	return n
}

func (p *timedPort) PollCompressed(core *machine.Core, nowNS float64, max int,
	pkts []*pktbuf.Packet, descs []nic.Descriptor) int {
	p.tr.begin(spanPoll)
	n := p.Port.PollCompressed(core, nowNS, max, pkts, descs)
	p.tr.end()
	p.countPoll(n)
	return n
}

func (p *timedPort) countPoll(n int) {
	if p.tr == nil {
		return // untraced: forward only
	}
	p.polls++
	if n == 0 {
		p.emptyPolls++
	}
	p.polled += uint64(n)
	if p.polls%pendingEvery == 0 {
		p.pendingSum += uint64(p.Port.PendingCount())
		p.pendingN++
	}
}

func (p *timedPort) Enqueue(core *machine.Core, pkt *pktbuf.Packet, nowNS float64) bool {
	p.tr.begin(spanEnqueue)
	ok := p.Port.Enqueue(core, pkt, nowNS)
	p.tr.end()
	return ok
}

func (p *timedPort) Reap(nowNS float64, out []*pktbuf.Packet) int {
	p.tr.begin(spanReap)
	n := p.Port.Reap(nowNS, out)
	p.tr.end()
	return n
}

func (p *timedPort) Post(pkt *pktbuf.Packet) error {
	p.tr.begin(spanPost)
	err := p.Port.Post(pkt)
	p.tr.end()
	return err
}

// timedSource wraps a traffic source, timing each Next as a span.
type timedSource struct {
	trafficgen.Source
	tr *tracer
}

func (s *timedSource) Next() ([]byte, float64, bool) {
	s.tr.begin(spanNext)
	f, ns, ok := s.Source.Next()
	s.tr.end()
	return f, ns, ok
}

// routerEngine drives one built Click router as a testbed.Engine, as
// the testbed's own adapter does, so the benchmark can hold the DUT
// (for Audit) and time DUT assembly apart from the run.
type routerEngine struct {
	rt *click.Router
	ec click.ExecCtx
}

func (e *routerEngine) Step(core *machine.Core, now float64) int {
	e.ec.Core = core
	e.ec.Now = now
	e.ec.Rt = e.rt
	return e.rt.Step(&e.ec)
}

// DropStats exposes the router's drop ledger to the harness's
// conservation accounting.
func (e *routerEngine) DropStats() *stats.DropCounters { return &e.rt.DropStats }

// TxBacklog sums packets held behind full TX rings, so the harness
// drains them before it ends a run.
func (e *routerEngine) TxBacklog() int {
	total := 0
	for _, inst := range e.rt.Instances {
		if tb, ok := inst.El.(interface{ TxBacklog() int }); ok {
			total += tb.TxBacklog()
		}
	}
	return total
}
