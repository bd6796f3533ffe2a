// ConnTracker: a standalone connection-tracking element over the
// conntrack state plane. It classifies every packet against the
// per-core flow shard, annotates the paint field with the flow's TCP
// state, and refuses what the policy rejects — strict-mode mid-stream
// pickups and table-pressure overflow — either out a dedicated refuse
// port or into the DropFlowTable* taxonomy.
package elements

import (
	"encoding/binary"

	"packetmill/internal/click"
	"packetmill/internal/conntrack"
	"packetmill/internal/cuckoo"
	"packetmill/internal/flowlog"
	"packetmill/internal/layout"
	"packetmill/internal/netpkt"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
)

func init() {
	click.Register("ConnTracker", func() click.Element { return &ConnTracker{} })
}

// ConnTracker tracks flows without rewriting them. Output 0 carries
// admitted traffic; output 1, when wired, carries refused packets
// (strict-mode invalids and table-full overflow) — unwired, they are
// killed under the matching DropFlowTable* reason.
type ConnTracker struct {
	click.Base
	TableSize int
	Annotate  bool

	shard *conntrack.Shard
	flog  *flowlog.Core

	// Tracked counts admitted packets; Refused counts the rest.
	Tracked uint64
	Refused uint64

	lastEvictions uint64
	lastRefusals  uint64

	out, deadFull, deadInvalid, refused pktbuf.Batch
}

// Class implements click.Element.
func (e *ConnTracker) Class() string { return "ConnTracker" }

// NOutputs implements click.Element: output 1 (refused) is optional.
func (e *ConnTracker) NOutputs() int { return 2 }

// Configure implements click.Element.
// Args: [CAPACITY n] [, STRICT bool] [, PROTECT bool] [, ANNOTATE bool]
// [, ESTABLISHED_MS n] [, EMBRYONIC_MS n] [, CLOSING_MS n] [, UDP_MS n].
func (e *ConnTracker) Configure(args []string, bc *click.BuildCtx) error {
	e.InitBase(bc)
	e.TableSize = 65536
	e.Annotate = true
	kw, pos := click.KeywordArgs(args)
	if v, ok := kw["CAPACITY"]; ok {
		n, err := click.ParseInt(v)
		if err != nil {
			return err
		}
		e.TableSize = n
	} else if len(pos) > 0 {
		n, err := click.ParseInt(pos[0])
		if err != nil {
			return err
		}
		e.TableSize = n
	}
	cfg := conntrack.Config{Capacity: e.TableSize}
	if err := parseTimeoutArgs(kw, &cfg); err != nil {
		return err
	}
	boolArg := func(key string) bool {
		v, ok := kw[key]
		return ok && (v == "true" || v == "1")
	}
	cfg.Strict = boolArg("STRICT")
	cfg.ProtectEstablished = boolArg("PROTECT")
	if v, ok := kw["ANNOTATE"]; ok {
		e.Annotate = v == "true" || v == "1"
	}
	e.shard = conntrack.NewShard(cfg, bc.Huge, bc.Seed^0x43545243)
	bc.AllocState(64, 2)
	return nil
}

// Push implements click.Element.
func (e *ConnTracker) Push(ec *click.ExecCtx, _ int, b *pktbuf.Batch) {
	core := ec.Core
	e.shard.Advance(core, ec.Now)
	out, deadFull, deadInvalid, refused := &e.out, &e.deadFull, &e.deadInvalid, &e.refused
	out.Reset()
	deadFull.Reset()
	deadInvalid.Reset()
	refused.Reset()
	refuseWired := len(e.Inst.Outputs) > 1 && e.Inst.Outputs[1] != nil
	b.ForEach(core, func(p *pktbuf.Packet) bool {
		ipOff := netpkt.EtherHdrLen
		l4, proto, _, ok := ipHeaderAt(ec, p, ipOff)
		if !ok {
			// Non-IP traffic is outside the tracker's jurisdiction.
			core.Compute(10)
			e.flog.Untracked(uint64(p.Len()))
			out.Append(core, p)
			return true
		}
		hdr := p.Load(core, ipOff, netpkt.IPv4HdrLen)
		key := cuckoo.Key{
			SrcIP: binary.BigEndian.Uint32(hdr[12:16]),
			DstIP: binary.BigEndian.Uint32(hdr[16:20]),
			Proto: proto,
		}
		var tcpFlags uint8
		if (proto == netpkt.ProtoTCP || proto == netpkt.ProtoUDP) && p.Len() >= l4+4 {
			ports := p.Load(core, l4, 4)
			key.SrcPort = binary.BigEndian.Uint16(ports[0:2])
			key.DstPort = binary.BigEndian.Uint16(ports[2:4])
			if proto == netpkt.ProtoTCP && p.Len() >= l4+14 {
				tcpFlags = p.Load(core, l4+13, 1)[0]
			}
		}
		// Both directions of a conversation share one entry.
		ck, _ := conntrack.Canonical(key)
		ent, verdict := e.shard.Track(core, ck, proto, tcpFlags, ec.Now, 0)
		switch verdict {
		case conntrack.VerdictPass, conntrack.VerdictNew:
			if e.Annotate && p.Meta.L.Has(layout.FieldAnnoPaint) {
				p.Meta.Set(core, layout.FieldAnnoPaint, uint64(ent.State))
			}
			ent.Bytes += uint64(p.Len())
			e.Tracked++
			out.Append(core, p)
		case conntrack.VerdictInvalid:
			e.Refused++
			if refuseWired {
				// Diverted, not killed: downstream decides its fate, so
				// the flow log leaves it to the wire residue or the
				// drop-ledger remainder.
				refused.Append(core, p)
			} else {
				e.flog.Refused(stats.DropFlowTableInvalid, uint64(p.Len()), ec.Now)
				deadInvalid.Append(core, p)
			}
		default: // VerdictFull, VerdictNoResource
			e.Refused++
			if refuseWired {
				refused.Append(core, p)
			} else {
				e.flog.Refused(stats.DropFlowTableFull, uint64(p.Len()), ec.Now)
				deadFull.Append(core, p)
			}
		}
		return true
	})
	st := e.shard.StatsSnapshot()
	if evs := st.EvictionsTotal(); evs > e.lastEvictions {
		e.lastEvictions = evs
		ec.Tel.Trace().Flow("conntrack-evicted")
	}
	if refs := st.RefusedFull + st.RefusedInvalid; refs > e.lastRefusals {
		e.lastRefusals = refs
		ec.Tel.Trace().Flow("conntrack-refused")
	}
	ec.Rt.KillReason(ec, deadInvalid, stats.DropFlowTableInvalid)
	ec.Rt.KillReason(ec, deadFull, stats.DropFlowTableFull)
	if !refused.Empty() {
		e.Inst.Output(ec, 1, refused)
	}
	if !out.Empty() {
		e.Inst.Output(ec, 0, out)
	}
}

// BindFlowLog implements flowlog.Hookable: flow endings, refusals, and
// untracked passthrough feed core fc's flow log, and the log's depart
// hook samples latency into this shard's entries.
func (e *ConnTracker) BindFlowLog(fc *flowlog.Core) {
	e.flog = fc
	fc.BindShard(e.shard, true, 0)
	prev := e.shard.OnReclaim
	e.shard.OnReclaim = func(ent *conntrack.Entry, cause conntrack.Cause) {
		fc.FlowEnd(ent, cause)
		if prev != nil {
			prev(ent, cause)
		}
	}
}

// FlowTableEntries reports current flow-table occupancy.
func (e *ConnTracker) FlowTableEntries() int { return e.shard.Len() }

// FlowReport implements the telemetry flow-table reporting seam; the
// collector fills Core and Element.
func (e *ConnTracker) FlowReport() telemetry.ConntrackReport {
	return conntrackReportFromShard(e.shard)
}
