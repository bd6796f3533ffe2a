package testbed

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/pktbuf"
	"packetmill/internal/trace"
	"packetmill/internal/wire"
)

// traceRun drives the router config with the flight recorder on and
// returns the exported Chrome trace. When the CI artifact dir is set, a
// watchdog trip dumps the flight recorder there for upload.
func traceRun(seed uint64) ([]byte, error) {
	rec := trace.NewRecorder(trace.Config{SampleEvery: 8, Seed: seed})
	o := Options{
		Model: click.XChange, Cores: 1, NICs: 1, Seed: seed,
		RateGbps: 40, Packets: 4000, Trace: rec,
	}
	if dir := os.Getenv("WIRE_PCAP_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		o.StallTracePath = filepath.Join(dir, fmt.Sprintf("stall-seed%d-trace.json", seed))
	}
	if _, err := Run(nf.Router(32), o); err != nil {
		return nil, err
	}
	return rec.ChromeJSON(), nil
}

// TestTraceDeterministic: the exported trace is a pure function of seed
// and config — byte-identical across repeated runs, byte-identical when
// another run executes concurrently, and different for a different seed.
func TestTraceDeterministic(t *testing.T) {
	a, err := traceRun(9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := traceRun(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("repeated runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}

	// Two identical runs racing each other: the recorders are per-run and
	// per-core, so concurrency must not leak into the export.
	type out struct {
		raw []byte
		err error
	}
	ch := make(chan out, 2)
	for i := 0; i < 2; i++ {
		go func() {
			raw, err := traceRun(9)
			ch <- out{raw, err}
		}()
	}
	for i := 0; i < 2; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		if !bytes.Equal(a, o.raw) {
			t.Fatalf("concurrent run %d exported a different trace", i)
		}
	}

	c, err := traceRun(10)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds exported identical traces; sampling is not seeded")
	}

	// The export is valid JSON with the expected event shapes.
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		kinds[ev.Ph] = true
	}
	for _, ph := range []string{"X", "i", "M"} {
		if !kinds[ph] {
			t.Errorf("trace has no %q events", ph)
		}
	}
}

// TestWireMetricsScrape serves a mirror NF on a live loopback wire with
// the exporter attached, pushes traffic through, and scrapes /metrics
// and /report afterwards. The exported families must match the golden
// list (testdata/metrics.golden) — dashboards key on those names.
func TestWireMetricsScrape(t *testing.T) {
	const nFrames = 300
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
	rec := trace.NewRecorder(trace.Config{SampleEvery: 1, Seed: 7})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	serveDone := make(chan error, 1)
	go func() {
		d, engines, err := NewWireGraphPerCore(mustParse(t, nf.Mirror(0, 32)),
			Options{Model: click.Copying, Seed: 7, Telemetry: true,
				Metrics: ms, Trace: rec},
			[][]nic.Port{{dut}})
		if err == nil {
			_, err = d.ServeWire(ctx, engines, 300*time.Millisecond, 0)
		}
		if err == nil {
			err = d.Audit()
		}
		serveDone <- err
	}()

	for i := 0; i < nFrames+32; i++ {
		if err := gen.Post(pktbuf.NewPacket(make([]byte, 2300), 0, 128)); err != nil {
			t.Fatal(err)
		}
	}
	frames := campusFrames(nFrames)
	tx := pktbuf.NewPacket(make([]byte, 2300), 0, 128)
	reap := make([]*pktbuf.Packet, 1)
	for _, frame := range frames {
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
			runtime.Gosched()
		}
	}
	// Drain the mirrored frames so the DUT's TX ring empties.
	pkts := make([]*pktbuf.Packet, 32)
	descs := make([]nic.Descriptor, 32)
	got := 0
	deadline := time.Now().Add(20 * time.Second)
	for got < nFrames && time.Now().Before(deadline) {
		n := gen.Poll(nil, 0, len(pkts), pkts, descs)
		got += n
		if n == 0 {
			runtime.Gosched()
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("wire serve: %v", err)
	}

	// /metrics: every golden family must be present.
	body := httpGet(t, "http://"+ms.Addr()+"/metrics")
	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range strings.Fields(string(golden)) {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
	if !strings.Contains(body, `packetmill_drops_total{reason="tx-ring-full"} `) {
		t.Error("/metrics drop taxonomy is missing the tx-ring-full reason")
	}

	// /report: the same document a -report json run prints.
	var rep struct {
		Schema    string `json:"schema"`
		LatencyUS struct {
			Count uint64 `json:"count"`
		} `json:"latency_us"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+ms.Addr()+"/report")), &rep); err != nil {
		t.Fatalf("/report is not valid JSON: %v", err)
	}
	if rep.Schema == "" {
		t.Error("/report has no schema field")
	}
	if rep.LatencyUS.Count == 0 {
		t.Error("/report latency histogram is empty after a served session")
	}

	// The flight recorder ran on the wall clock and sampled the traffic.
	if rec.Core(0).Sampled() == 0 {
		t.Error("flight recorder sampled nothing on the wire")
	}
	if err := json.Unmarshal(rec.ChromeJSON(), &struct{}{}); err != nil {
		t.Errorf("wire trace is not valid JSON: %v", err)
	}
}

func mustParse(t *testing.T, config string) *click.Graph {
	t.Helper()
	g, err := click.Parse(config)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: HTTP %d: %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}
