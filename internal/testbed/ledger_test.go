package testbed

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/elements"
	"packetmill/internal/flowlog"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/telemetry"
	"packetmill/internal/trace"
	"packetmill/internal/wire"
)

// promSeries parses Prometheus text exposition into name → label set →
// value (label sets kept verbatim, e.g. `reason="rx-runt"`).
func promSeries(t *testing.T, body string) map[string]map[string]float64 {
	t.Helper()
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i+1:len(name)-1]
		}
		if out[name] == nil {
			out[name] = map[string]float64{}
		}
		out[name][labels] = v
	}
	return out
}

func sumSeries(m map[string]float64) uint64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return uint64(s)
}

// TestWireSurfacesAgree serves one wire session with telemetry, the
// exporter, and the flow log armed, with runts mixed in so the drop
// ledger is not empty, then checks that every surface renders the same
// ledger: /report totals, the /metrics counter sums, and the
// denominators of the flow-record reconciliation agree exactly on
// offered, TX, and drops, and /report's p99 is the exported histogram's.
func TestWireSurfacesAgree(t *testing.T) {
	const nFrames = 240
	gen, dut, err := wire.Loopback(
		wire.Config{Name: "gen", RXRing: 1024, TXRing: 1024},
		wire.Config{Name: "dut", RXRing: 1024, TXRing: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	defer dut.Close()
	ms, err := trace.NewMetricsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type served struct {
		d   *DUT
		err error
	}
	g := mustParse(t, nf.ConnTrackForwarder(32, 4096))
	serveDone := make(chan served, 1)
	go func() {
		d, engines, err := NewWireGraphPerCore(g,
			Options{Model: click.XChange, Seed: 7, Telemetry: true,
				Metrics: ms, FlowLog: flowlog.New(flowlog.Config{})},
			[][]nic.Port{{dut}})
		if err == nil {
			_, err = d.ServeWire(ctx, engines, 300*time.Millisecond, 0)
		}
		serveDone <- served{d, err}
	}()

	for i := 0; i < nFrames+32; i++ {
		if err := gen.Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); err != nil {
			t.Fatal(err)
		}
	}
	tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
	reap := make([]*pktbuf.Packet, 1)
	for i, frame := range campusFrames(nFrames) {
		if i%40 == 7 {
			frame = frame[:40] // a runt: dropped at the DUT's MAC
		}
		tx.Reset(tx.OrigHeadroom())
		tx.SetFrame(frame)
		if !gen.Enqueue(nil, tx, 0) {
			t.Fatal("generator Enqueue refused")
		}
		deadline := time.Now().Add(5 * time.Second)
		for gen.Reap(0, reap) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("generator TX buffer never came back")
			}
		}
	}
	sv := <-serveDone
	if sv.err != nil {
		t.Fatalf("wire serve: %v", sv.err)
	}

	var rep telemetry.Report
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+ms.Addr()+"/report")), &rep); err != nil {
		t.Fatalf("/report is not valid JSON: %v", err)
	}
	prom := promSeries(t, httpGet(t, "http://"+ms.Addr()+"/metrics"))
	drops := prom["packetmill_drops_total"]
	reason := func(r stats.DropReason) float64 { return drops[`reason="`+r.String()+`"`] }
	mOffered := sumSeries(prom["packetmill_rx_packets_total"]) + uint64(reason(stats.DropRxNoBuf)+
		reason(stats.DropRxRingFull)+reason(stats.DropRxRunt))
	mTx, mDrops := sumSeries(prom["packetmill_tx_packets_total"]), sumSeries(drops)

	led := sv.d.WireResult()
	rc := flowlog.Reconcile(led.Flows, led.Offered, led.TxWire, &led.DropsByReason)
	if !rc.Exact {
		t.Errorf("flow records do not reconcile with the wire ledger: %+v", rc)
	}
	if reason(stats.DropRxRunt) == 0 || rep.Totals.TxWire == 0 {
		t.Fatalf("session too clean to compare: %+v, runts %v", rep.Totals, reason(stats.DropRxRunt))
	}
	// The text report renders the same ledger.
	var text strings.Builder
	WriteText(&text, led)
	var tOffered, tTx, tDrops uint64
	if i := strings.Index(text.String(), "offered/lost:"); i < 0 {
		t.Fatalf("text report has no offered/lost line:\n%s", text.String())
	} else if _, err := fmt.Sscanf(text.String()[i:], "offered/lost: %d offered, %d on wire, %d dropped",
		&tOffered, &tTx, &tDrops); err != nil {
		t.Fatalf("text report offered/lost line: %v\n%s", err, text.String())
	}
	for _, c := range []struct {
		what                         string
		report, metrics, flows, text uint64
	}{
		{"offered", rep.Totals.Offered, mOffered, rc.Offered, tOffered},
		{"tx", rep.Totals.TxWire, mTx, rc.TxWire, tTx},
		{"drops", rep.Totals.Dropped, mDrops, rc.Drops, tDrops},
	} {
		if c.report != c.metrics || c.report != c.flows || c.report != c.text {
			t.Errorf("%s disagrees: /report %d, /metrics %d, flow reconciliation %d, text report %d",
				c.what, c.report, c.metrics, c.flows, c.text)
		}
	}

	// p99: /report digests the same histogram /metrics exports, so it
	// equals the ledger histogram's and falls in the exposition bucket
	// that holds the 99th-percentile rank (less one sub-bucket of
	// quantization where a histogram bucket straddles a bound).
	if want := telemetry.LatencyFromHist(led.Latency); rep.LatencyUS != want {
		t.Errorf("/report latency %+v, ledger histogram %+v", rep.LatencyUS, want)
	}
	count := prom["packetmill_latency_seconds_count"][""]
	if uint64(count) != rep.LatencyUS.Count || count == 0 {
		t.Fatalf("exported latency count %v, /report count %d", count, rep.LatencyUS.Count)
	}
	p99 := rep.LatencyUS.P99 * 1e-6
	lo, hi := 0.0, math.Inf(1)
	for labels, n := range prom["packetmill_latency_seconds_bucket"] {
		le, err := strconv.ParseFloat(strings.Trim(strings.TrimPrefix(labels, "le="), `"`), 64)
		if err != nil {
			le = math.Inf(1)
		}
		if n >= 0.99*count {
			hi = min(hi, le)
		} else {
			lo = max(lo, le)
		}
	}
	if p99 > hi*(1+1e-9) || p99 < lo*(1-1.0/32) {
		t.Errorf("/report p99 %.3g s outside the exported histogram's p99 bucket (%g, %g]", p99, lo, hi)
	}
}

// TestWireTxRingFullConservation is the regression for the TX double
// count: a DUT whose 4-slot TX ring drains at 50 Mbps refuses most
// enqueues, and the PMD retries every refusal from the element backlog.
// A refusal is not a lost frame, so the ledger must still balance,
// offered == tx + drops, with tx-ring-full booked only when the
// backlog overflowed. Booking each refusal as a drop once inflated 200
// offered frames to 71 sent plus some 12,000 dropped.
func TestWireTxRingFullConservation(t *testing.T) {
	const nFrames = 200
	gen, dut, err := wire.Loopback(
		wire.Config{Name: "gen", RXRing: 1024, TXRing: 1024},
		wire.Config{Name: "dut", RXRing: 1024, TXRing: 4, LinkGbps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	defer dut.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type served struct {
		d   *DUT
		err error
	}
	serveDone := make(chan served, 1)
	go func() {
		d, engines, err := NewWireGraphPerCore(mustParse(t, nf.Mirror(0, 32)),
			Options{Model: click.XChange, Seed: 7}, [][]nic.Port{{dut}})
		if err == nil {
			_, err = d.ServeWire(ctx, engines, 300*time.Millisecond, 0)
		}
		serveDone <- served{d, err}
	}()

	tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
	reap := make([]*pktbuf.Packet, 1)
	for _, frame := range campusFrames(nFrames) {
		tx.Reset(tx.OrigHeadroom())
		tx.SetFrame(frame)
		if !gen.Enqueue(nil, tx, 0) {
			t.Fatal("generator Enqueue refused")
		}
		deadline := time.Now().Add(5 * time.Second)
		for gen.Reap(0, reap) == 0 {
			if time.Now().After(deadline) {
				t.Fatal("generator TX buffer never came back")
			}
		}
	}
	sv := <-serveDone
	if sv.err != nil {
		t.Fatalf("wire serve: %v", sv.err)
	}
	if err := sv.d.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}

	led := sv.d.WireResult()
	refusals := dut.TXStats().DropFull
	t.Logf("offered %d, tx %d, drops %s, ring refusals %d", led.Offered, led.TxWire,
		led.DropsByReason.String(), refusals)
	if led.Offered != nFrames {
		t.Fatalf("ledger offered %d, sent %d", led.Offered, nFrames)
	}
	if led.Offered != led.TxWire+led.Dropped || led.Dropped != led.DropsByReason.Total() {
		t.Fatalf("conservation: offered %d != tx %d + drops %d (%s; %d ring refusals)",
			led.Offered, led.TxWire, led.Dropped, led.DropsByReason.String(), refusals)
	}
	var overflow uint64
	for _, rt := range led.Routers {
		for _, inst := range rt.Instances {
			if td, ok := inst.El.(*elements.ToDPDKDevice); ok {
				overflow += td.DropsFull
			}
		}
	}
	if got := led.DropsByReason.Get(stats.DropTxRingFull); got != overflow {
		t.Errorf("tx-ring-full %d, want the element backlog's %d overflow drops", got, overflow)
	}
	if refusals <= overflow {
		t.Fatalf("ring never refused beyond the backlog's overflow (%d refusals, %d overflow drops): the test exercised nothing",
			refusals, overflow)
	}
}

// TestSimResultMatchesTelemetry: on a simulated run the Result and the
// telemetry report built from it carry the same totals and the same
// latency digest.
func TestSimResultMatchesTelemetry(t *testing.T) {
	res, err := RunGraph(mustParse(t, nf.Router(32)), Options{
		Model: click.XChange, Packets: 4000, FreqGHz: 1.2, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Telemetry.Totals
	if tot.Offered != res.Offered || tot.TxWire != res.TxWire || tot.Dropped != res.Dropped ||
		tot.Dropped != res.DropsByReason.Total() || tot.Gbps != res.Gbps() || tot.Mpps != res.Mpps() {
		t.Errorf("report totals %+v disagree with the result (offered %d, tx %d, dropped %d)",
			tot, res.Offered, res.TxWire, res.Dropped)
	}
	lat := res.Telemetry.LatencyUS
	if lat != telemetry.LatencyFromHist(res.Latency) || lat.Count != res.Packets ||
		lat.P99 != res.Latency.Quantile(0.99)/1e3 {
		t.Errorf("report latency %+v disagrees with the result histogram (%d samples, p99 %.3f µs)",
			lat, res.Latency.Count(), res.Latency.Quantile(0.99)/1e3)
	}
}
