package testbed

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"packetmill/internal/click"
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
		d, _, err := ServeWireGraph(ctx, g,
			Options{Model: click.XChange, Seed: 7, Telemetry: true,
				Metrics: ms, FlowLog: flowlog.New(flowlog.Config{})},
			[]nic.Port{dut}, 300*time.Millisecond, 0)
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

	led := sv.d.wireLedger(sv.d.wireEngines)
	rc := flowlog.Reconcile(sv.d.WireFlowRecords(), led.Offered, led.TxWire, &led.DropsByReason)
	if !rc.Exact {
		t.Errorf("flow records do not reconcile with the wire ledger: %+v", rc)
	}
	if reason(stats.DropRxRunt) == 0 || rep.Totals.TxWire == 0 {
		t.Fatalf("session too clean to compare: %+v, runts %v", rep.Totals, reason(stats.DropRxRunt))
	}
	for _, c := range []struct {
		what                   string
		report, metrics, flows uint64
	}{
		{"offered", rep.Totals.Offered, mOffered, rc.Offered},
		{"tx", rep.Totals.TxWire, mTx, rc.TxWire},
		{"drops", rep.Totals.Dropped, mDrops, rc.Drops},
	} {
		if c.report != c.metrics || c.report != c.flows {
			t.Errorf("%s disagrees: /report %d, /metrics %d, flow reconciliation %d",
				c.what, c.report, c.metrics, c.flows)
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
