package testbed

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/flowlog"
	"packetmill/internal/flowlog/diagnose"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/overload"
	"packetmill/internal/pktbuf"
	"packetmill/internal/stats"
	"packetmill/internal/trace"
	"packetmill/internal/trafficgen"
	"packetmill/internal/wire"
)

// flowScenario is one run of the diagnosis matrix: a config, traffic,
// and the single scenario its records must (and the others must not)
// diagnose as. Empty want = the clean baseline, zero findings.
type flowScenario struct {
	name string
	want diagnose.Scenario
	run  func(t *testing.T) (*Result, *DUT)
}

// flowRun is chaosRun with the flow log armed.
func flowRun(t *testing.T, config string, o Options) (*Result, *DUT) {
	t.Helper()
	o.FlowLog = flowlog.New(flowlog.Config{})
	res, d, err := chaosRun(config, o)
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

const flowTrackerConfig = `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> ct :: ConnTracker(CAPACITY %s)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`

func flowScenarios() []flowScenario {
	return []flowScenario{
		{
			// Clean churn: table capacity above the concurrent flow
			// count, so no evictions, no refusals, no findings.
			name: "churn", want: "",
			run: func(t *testing.T) (*Result, *DUT) {
				return flowRun(t, strings.Replace(flowTrackerConfig, "%s", "4096", 1), Options{
					Model: click.XChange, Packets: 16000, RateGbps: 40,
					Seed: 21, Telemetry: true,
					Traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
						return trafficgen.NewChurn(trafficgen.ChurnConfig{
							Config: cfg, Concurrent: 2048, FlowPackets: 8,
						})
					},
				})
			},
		},
		{
			// SYN flood: attack half-opens against a small protected
			// table, layered over a sliver of legitimate churn.
			name: "syn-flood", want: diagnose.SYNFlood,
			run: func(t *testing.T) (*Result, *DUT) {
				return flowRun(t, strings.Replace(flowTrackerConfig, "%s", "256, PROTECT true", 1), Options{
					Model: click.XChange, Packets: 16000, RateGbps: 40,
					Seed: 23, Telemetry: true,
					Traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
						legit := cfg
						legit.Count = cfg.Count / 4
						legit.RateGbps = cfg.RateGbps / 4
						flood := cfg
						flood.Seed = cfg.Seed ^ 0x5f1d
						flood.Count = cfg.Count - legit.Count
						flood.RateGbps = cfg.RateGbps - legit.RateGbps
						return trafficgen.NewMerge(
							trafficgen.NewChurn(trafficgen.ChurnConfig{
								Config: legit, Concurrent: 32, FlowPackets: 16,
							}),
							trafficgen.NewSYNFlood(flood),
						)
					},
				})
			},
		},
		{
			// NAT port exhaustion: a roomy table behind a starved
			// external-port pool, so refusals are all no-port.
			name: "nat-exhaustion", want: diagnose.NATPortExhaustion,
			run: func(t *testing.T) (*Result, *DUT) {
				config := `
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> nat :: IPRewriter(EXTIP 192.168.100.1, CAPACITY 4096, PORTS 512)
      -> EtherRewrite(SRC 02:00:00:00:00:02, DST 02:00:00:00:00:01)
      -> output;
`
				return flowRun(t, config, Options{
					Model: click.XChange, Packets: 16000, RateGbps: 40,
					Seed: 25, Telemetry: true,
					Traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
						return trafficgen.NewChurn(trafficgen.ChurnConfig{
							Config: cfg, Concurrent: 2048, FlowPackets: 8,
						})
					},
				})
			},
		},
		{
			// Overload shed storm: the CPU-bound forwarder at far past
			// capacity with tail-drop admission armed. No tracking
			// element — every TX'd packet rides the wire residue and
			// every shed the ledger remainder, and it must still
			// reconcile exactly.
			name: "overload-shed", want: diagnose.ShedStorm,
			run: func(t *testing.T) (*Result, *DUT) {
				return flowRun(t, overloadNF(), Options{
					Model: click.XChange, FreqGHz: 1.2, RateGbps: 40,
					Packets: 6000, NICConfig: overloadRings(),
					Seed: 27, Telemetry: true,
					Overload: &overload.Config{
						Policy:    overload.PolicyTailDrop,
						HighWater: 0.1,
						LowWater:  0.005,
						Health: overload.HealthConfig{
							DegradeOcc:  0.012,
							OverloadOcc: 0.6,
							RecoverOcc:  0.006,
							DwellNS:     5e3,
						},
					},
				})
			},
		},
		{
			// Expiry storm: handshake waves separated by 10x the idle
			// timeout, so each wave's timers mature together.
			name: "expiry-storm", want: diagnose.ExpiryStorm,
			run: func(t *testing.T) (*Result, *DUT) {
				return flowRun(t, strings.Replace(flowTrackerConfig, "%s",
					"4096, ESTABLISHED_MS 1, EMBRYONIC_MS 1", 1), Options{
					Model: click.XChange, Packets: 512 * 2 * 4, RateGbps: 40,
					Seed: 29, Telemetry: true,
					Traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
						return trafficgen.NewExpiryStorm(cfg, 512, 1e7)
					},
				})
			},
		},
	}
}

// TestFlowLogScenarioMatrix drives every scenario and checks the two
// tentpole guarantees end to end: (a) each run's records reconcile
// EXACTLY against the conservation invariant — TX-side packets equal
// the wire count, drop-side packets equal the drop ledger; (b) the
// diagnosis engine names each run's scenario and never cross-fires on
// another's records.
func TestFlowLogScenarioMatrix(t *testing.T) {
	type outcome struct {
		name     string
		want     diagnose.Scenario
		findings []diagnose.Finding
	}
	var outcomes []outcome
	for _, sc := range flowScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			res, d := sc.run(t)
			checkInvariants(t, res, d)
			if len(res.Flows) == 0 {
				t.Fatal("flow log produced no records")
			}
			rec := flowlog.Reconcile(res.Flows, res.Offered, res.TxWire, &res.DropsByReason)
			if !rec.Exact {
				t.Fatalf("reconciliation inexact: offered=%d txWire=%d drops=%d txSide=%d dropSide=%d",
					rec.Offered, rec.TxWire, rec.Drops, rec.TxSide, rec.DropSide)
			}
			// The report carries the verdict roll-up.
			if res.Telemetry == nil || res.Telemetry.Flows == nil {
				t.Fatal("telemetry report has no flows section")
			}
			if res.Telemetry.Flows.TxSidePackets != rec.TxSide {
				t.Fatalf("report TX-side %d != records %d",
					res.Telemetry.Flows.TxSidePackets, rec.TxSide)
			}
			findings := diagnose.Run(res.Flows, diagnose.Defaults())
			outcomes = append(outcomes, outcome{sc.name, sc.want, findings})
		})
	}
	if t.Failed() {
		return
	}
	// The zero-false-positive matrix: each run earns exactly its own
	// scenario (the baseline earns none).
	for _, o := range outcomes {
		var names []string
		for _, f := range o.findings {
			names = append(names, string(f.Scenario))
		}
		if o.want == "" {
			if len(o.findings) != 0 {
				t.Errorf("%s: clean run diagnosed as %v", o.name, names)
			}
			continue
		}
		if len(o.findings) != 1 || o.findings[0].Scenario != o.want {
			t.Errorf("%s: diagnosed as %v, want exactly [%s]", o.name, names, o.want)
		}
	}
}

// TestWireFlowsExport serves a conntrack forwarder on a live loopback
// wire with the exporter and flow log armed, then checks the whole
// export surface: /metrics carries the flow families and every drop
// reason, and lints clean against the text-format checker; /flows
// serves schema-tagged JSON lines; /report carries the flows section;
// and the post-session record cut reconciles against the wire counters.
func TestWireFlowsExport(t *testing.T) {
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

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type served struct {
		d   *DUT
		err error
	}
	serveDone := make(chan served, 1)
	go func() {
		d, engines, err := NewWireGraphPerCore(mustParse(t, nf.ConnTrackForwarder(32, 4096)),
			Options{Model: click.Copying, Seed: 7, Telemetry: true,
				Metrics: ms, FlowLog: flowlog.New(flowlog.Config{})},
			[][]nic.Port{{dut}})
		if err == nil {
			_, err = d.ServeWire(ctx, engines, 300*time.Millisecond, 0)
		}
		if err == nil {
			err = d.Audit()
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
	pkts := make([]*pktbuf.Packet, 32)
	descs := make([]nic.Descriptor, 32)
	got := 0
	deadline := time.Now().Add(20 * time.Second)
	for got < nFrames && time.Now().Before(deadline) {
		got += gen.Poll(nil, 0, len(pkts), pkts, descs)
	}
	sv := <-serveDone
	if sv.err != nil {
		t.Fatalf("wire serve: %v", sv.err)
	}

	// /metrics: lint-clean, with the flow families and the full drop
	// taxonomy exposed.
	body := httpGet(t, "http://"+ms.Addr()+"/metrics")
	if problems := trace.LintProm([]byte(body)); len(problems) != 0 {
		t.Fatalf("/metrics fails the exposition lint:\n%s", strings.Join(problems, "\n"))
	}
	for _, fam := range []string{
		"packetmill_flow_records", "packetmill_flow_packets_total",
		"packetmill_flow_bytes_total", "packetmill_flow_records_lost_total",
		"packetmill_flow_latency_samples_total", "packetmill_flow_top_bytes",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("/metrics is missing the %s family", fam)
		}
	}
	for _, r := range stats.Reasons() {
		if !strings.Contains(body, `packetmill_drops_total{reason="`+r.String()+`"} `) {
			t.Errorf("/metrics drop taxonomy is missing reason %s", r)
		}
	}
	for v := flowlog.Verdict(0); v < flowlog.NumVerdicts; v++ {
		if !strings.Contains(body, `packetmill_flow_packets_total{verdict="`+v.String()+`"} `) {
			t.Errorf("/metrics flow families are missing verdict %s", v)
		}
	}

	// /flows: one schema-tagged JSON object per line.
	flows := httpGet(t, "http://"+ms.Addr()+"/flows")
	lines := strings.Split(strings.TrimRight(flows, "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("/flows served no records")
	}
	for i, line := range lines {
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("/flows line %d is not JSON: %v\n%s", i+1, err, line)
		}
		if doc["schema"] != flowlog.Schema {
			t.Fatalf("/flows line %d schema = %v, want %q", i+1, doc["schema"], flowlog.Schema)
		}
	}

	// /report: the flows roll-up rides the same document.
	var rep struct {
		Flows *struct {
			Records uint64 `json:"records"`
		} `json:"flows"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, "http://"+ms.Addr()+"/report")), &rep); err != nil {
		t.Fatalf("/report is not valid JSON: %v", err)
	}
	if rep.Flows == nil || rep.Flows.Records == 0 {
		t.Error("/report has no flows section after a served session")
	}

	// The post-session cut reconciles against the wire's own counters.
	led := sv.d.WireResult()
	recs := led.Flows
	if len(recs) == 0 {
		t.Fatal("the wire session's ledger cut no flow records")
	}
	rec := flowlog.Reconcile(recs, led.TxWire+led.Dropped, led.TxWire, &led.DropsByReason)
	if !rec.Exact {
		t.Fatalf("wire reconciliation inexact: %+v", rec)
	}
}

// The observability gate, state-plane edition: conntrack tracking, flow
// logging (lifecycle hooks, refusal counters, the TX latency sampler),
// and the metrics exporter armed together must keep the steady-state
// datapath at zero allocations per packet.
func TestSteadyStateZeroAllocsFlowLogged(t *testing.T) {
	ms, err := trace.NewMetricsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	o := Options{Model: click.XChange, Telemetry: true, Metrics: ms,
		FlowLog: flowlog.New(flowlog.Config{SampleEvery: 1})}.withDefaults()
	d, err := NewDUT(o)
	if err != nil {
		t.Fatal(err)
	}
	g, err := click.Parse(nf.ConnTrackForwarder(32, 4096))
	if err != nil {
		t.Fatal(err)
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		t.Fatal(err)
	}
	eng := &clickEngine{rt: routers[0]}
	frames := churnFrames(2048)
	for _, f := range frames[:1024] {
		pumpOne(d, eng, f)
	}
	// The depart hook must actually be sampling, or the gate measures a
	// disarmed flow log.
	if sampled, _ := o.FlowLog.LatencySampled(); sampled == 0 {
		t.Fatal("flow log sampled no TX latency during warmup")
	}
	next := 1024
	avg := testing.AllocsPerRun(100, func() {
		pumpOne(d, eng, frames[next%len(frames)])
		next++
	})
	if avg != 0 {
		t.Errorf("flow-logged datapath allocates %.2f times per packet, want 0", avg)
	}
}
