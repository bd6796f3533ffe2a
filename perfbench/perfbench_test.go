package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"packetmill/internal/dpdk"
	"packetmill/internal/machine"
	"packetmill/internal/memsim"
	"packetmill/internal/netpkt"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/testbed"
	"packetmill/internal/wire"
)

// txDigest hashes every departing frame, in order.
type txDigest struct {
	frames int
	sum    [sha256.Size]byte
}

func (d *txDigest) tap(frame []byte, _ float64) {
	d.frames++
	d.sum = sha256.Sum256(append(d.sum[:], frame...))
}

// TestSeamsTransparentSimRouter drives the same seeded sim-router build
// through the testbed's own path and through the benchmark's (a timed
// traffic source, the benchmark's engine adapter, RunEngines): the TX
// frames, conservation totals and modeled rate must be identical, with
// telemetry off and on.
func TestSeamsTransparentSimRouter(t *testing.T) {
	st, err := simRouter.setup(7)
	if err != nil {
		t.Fatal(err)
	}
	g := st.p.Plan.Graph
	for _, tel := range []bool{false, true} {
		o := simRouter.options(st.p, 7, simRouter.rateGbps, 6000)
		o.Telemetry = tel

		var plain, wrapped txDigest
		oPlain := o
		oPlain.Tap = plain.tap
		want, err := testbed.RunGraph(g, oPlain)
		if err != nil {
			t.Fatal(err)
		}
		oWrapped := o
		oWrapped.Tap = wrapped.tap
		tr := newTracer("test", time.Now())
		run, err := runSim(g, oWrapped, tr)
		if err != nil {
			t.Fatal(err)
		}
		got := run.res
		if len(run.problems) > 0 {
			t.Errorf("telemetry=%v: output checks failed: %v", tel, run.problems)
		}
		if plain.frames == 0 || plain.frames != wrapped.frames || plain.sum != wrapped.sum {
			t.Errorf("telemetry=%v: TX digest differs: %d frames %x vs %d frames %x",
				tel, plain.frames, plain.sum[:6], wrapped.frames, wrapped.sum[:6])
		}
		if want.Offered != got.Offered || want.TxWire != got.TxWire ||
			want.DropsByReason != got.DropsByReason {
			t.Errorf("telemetry=%v: conservation totals differ: %d/%d/%v vs %d/%d/%v", tel,
				want.Offered, want.TxWire, want.DropsByReason.Map(),
				got.Offered, got.TxWire, got.DropsByReason.Map())
		}
		if want.Mpps() != got.Mpps() {
			t.Errorf("telemetry=%v: model_mpps_per_core %v vs %v", tel, want.Mpps(), got.Mpps())
		}
		if tr.layer(spanNext).Count != uint64(got.Offered)+1 || tr.layer(spanDrive).Count != 1 {
			t.Errorf("telemetry=%v: spans next=%d drive=%d for %d frames", tel,
				tr.layer(spanNext).Count, tr.layer(spanDrive).Count, got.Offered)
		}
	}
}

// TestTimedPortForwardsUnchanged plays one call script against two twin
// simulated queue pairs, one behind timedPort: every result must match.
func TestTimedPortForwardsUnchanged(t *testing.T) {
	type twin struct {
		dev  nic.Port
		nic  *nic.NIC
		core *machine.Core
		bufs []*pktbuf.Packet
	}
	mk := func() twin {
		mach, core := machine.Default(2.3)
		huge := memsim.NewArena("huge", memsim.HugeBase, 1<<26)
		n := nic.New(nic.DefaultConfig("twin"), mach.Sys, huge)
		bufs, err := dpdk.AllocRawBuffers(huge, 48, dpdk.DefaultHeadroom, dpdk.DefaultDataRoom)
		if err != nil {
			t.Fatal(err)
		}
		return twin{dev: n.Port(0), nic: n, core: core, bufs: bufs}
	}
	raw, wt := mk(), mk()
	timed := &timedPort{Port: wt.dev, tr: newTracer("test", time.Now())}
	wt.dev = timed
	frames := newWireFrames(3)
	frame := make([]byte, wireFrameSize)
	for _, tw := range []twin{raw, wt} {
		for _, b := range tw.bufs {
			if err := tw.dev.Post(b); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ {
			frames.fill(frame, uint64(i), int64(i))
			tw.nic.Deliver(0, frame, float64(i*100))
		}
	}
	same := func(what string, a, b any) {
		t.Helper()
		if a != b {
			t.Errorf("%s: %v unwrapped vs %v wrapped", what, a, b)
		}
	}
	same("posted", raw.dev.PostedCount(), wt.dev.PostedCount())
	same("pending", raw.dev.PendingCount(), wt.dev.PendingCount())
	same("next ready", raw.dev.NextReadyNS(), wt.dev.NextReadyNS())
	var pkts [2][32]*pktbuf.Packet
	var descs [2][32]nic.Descriptor
	for round := 0; round < 3; round++ {
		now := float64(1e6 * (round + 1))
		n0 := raw.dev.Poll(raw.core, now, 32, pkts[0][:], descs[0][:])
		n1 := wt.dev.Poll(wt.core, now, 32, pkts[1][:], descs[1][:])
		same("poll", n0, n1)
		for i := 0; i < n0 && i < n1; i++ {
			same("descriptor", descs[0][i], descs[1][i])
			same("frame", string(pkts[0][i].Bytes()), string(pkts[1][i].Bytes()))
			same("enqueue", raw.dev.Enqueue(raw.core, pkts[0][i], now), wt.dev.Enqueue(wt.core, pkts[1][i], now))
		}
		out0, out1 := make([]*pktbuf.Packet, 64), make([]*pktbuf.Packet, 64)
		same("reap", raw.dev.Reap(now+1e6, out0), wt.dev.Reap(now+1e6, out1))
		same("inflight", raw.dev.InflightCount(), wt.dev.InflightCount())
	}
	same("rx stats", raw.dev.RXStats(), wt.dev.RXStats())
	same("tx stats", raw.dev.TXStats(), wt.dev.TXStats())
	same("port name", raw.dev.PortName(), wt.dev.PortName())
	if timed.polls != 3 || timed.polled != 40 || timed.tr.layer(spanEnqueue).Count != 40 {
		t.Errorf("timedPort counted polls=%d polled=%d enqueues=%d, want 3/40/40",
			timed.polls, timed.polled, timed.tr.layer(spanEnqueue).Count)
	}
}

// TestWireFramesVerify: a MAC-swapped copy of a generated frame passes;
// an unswapped one, a corrupted timestamp, or a foreign flow fails.
func TestWireFramesVerify(t *testing.T) {
	w := newWireFrames(11)
	f := make([]byte, wireFrameSize)
	w.fill(f, 42, 12345)
	mirrored := append([]byte(nil), f...)
	netpkt.SwapEtherAddrs(mirrored[:12])
	if seq, ts, ok := w.verify(mirrored); !ok || seq != 42 || ts != 12345 {
		t.Fatalf("mirrored frame: seq=%d ts=%d ok=%v", seq, ts, ok)
	}
	if _, _, ok := w.verify(f); ok {
		t.Error("an unswapped frame verified")
	}
	bad := append([]byte(nil), mirrored...)
	bad[offTS+7] ^= 1
	if _, _, ok := w.verify(bad); ok {
		t.Error("a frame with a corrupted timestamp verified")
	}
	other := append([]byte(nil), mirrored...)
	other[netpkt.EtherHdrLen+netpkt.IPv4HdrLen+1] ^= 0x40 // source port: another flow
	if _, _, ok := w.verify(other); ok {
		t.Error("a frame of the wrong flow verified")
	}
}

// TestWirePhaseBoundExpires wedges the sink — the DUT's TX far end goes
// unread, so the DUT's Enqueue blocks in its socket write while holding
// its port lock — and checks that the phase still returns within its
// bounds, as failed operations with a goroutine dump, on two Ps.
func TestWirePhaseBoundExpires(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer func(d, s, w time.Duration) { drainGrace, stopGrace, writeSlack = d, s, w }(drainGrace, stopGrace, writeSlack)
	drainGrace, stopGrace, writeSlack = 200*time.Millisecond, 500*time.Millisecond, 200*time.Millisecond
	var dump bytes.Buffer
	defer func(w io.Writer) { stackOut = w }(stackOut)
	stackOut = &dump

	w, err := newWireRig(1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	idleNear, idleFar, err := wire.Socketpair()
	if err != nil {
		t.Fatal(err)
	}
	defer idleNear.Close()
	unread := w.sink
	defer unread.Close()
	w.sink = idleFar
	pc, err := newPacer()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.f.Close()

	start := time.Now()
	res := runPhase(w, newWireFrames(1), pc,
		phaseSpec{name: "wedged", ratePPS: 20000, dur: 300 * time.Millisecond}, nil, false)
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("phase took %v", el)
	}
	r := newReport("wire-mirror")
	res.book(r, "wedged")
	if !res.expired || r.failed == 0 || r.correct() {
		t.Errorf("expired=%v failed=%d problems=%v", res.expired, r.failed, r.problems)
	}
	if !strings.Contains(dump.String(), "goroutine ") || !strings.Contains(dump.String(), "ServeWire") {
		t.Errorf("no goroutine dump naming the serve loop:\n%.2000s", dump.String())
	}
}

// TestTracerSelfTimeAndParents: a child span's time leaves its parent's
// self time, retained spans link to their parent, and an aborted span
// leaves no trace.
func TestTracerSelfTimeAndParents(t *testing.T) {
	tr := newTracer("test", time.Now())
	tr.begin(spanServe)
	tr.begin(spanPoll)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.begin(spanSinkRead)
	tr.abort()
	tr.end()
	serve, poll := tr.layer(spanServe), tr.layer(spanPoll)
	if serve.Count != 1 || poll.Count != 1 || tr.layer(spanSinkRead).Count != 0 {
		t.Fatalf("counts serve=%d poll=%d read=%d", serve.Count, poll.Count, tr.layer(spanSinkRead).Count)
	}
	if poll.TotalNS < int64(2*time.Millisecond) || serve.SelfNS != serve.TotalNS-poll.TotalNS {
		t.Errorf("serve total %d self %d, poll total %d", serve.TotalNS, serve.SelfNS, poll.TotalNS)
	}
	if len(tr.kept) != 2 || tr.kept[0].Parent != -1 || tr.kept[1].Parent != 0 ||
		tr.kept[1].EndNS > tr.kept[0].EndNS || tr.kept[0].EndNS == 0 {
		t.Errorf("kept spans %+v", tr.kept)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metric
// declarations in step with the ones this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	for _, c := range []struct {
		what      string
		got, want []metricDef
	}{{"end_to_end", doc.EndToEnd, e2eMetrics}, {"per_layer", doc.PerLayer, layerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics declared, %d printed", c.what, len(c.got), len(c.want))
			continue
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: declared %+v, printed %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}
