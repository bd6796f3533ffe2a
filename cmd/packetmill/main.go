// Command packetmill is the pipeline CLI: read a Click configuration,
// optionally grind it through the mill's passes, pick a metadata model,
// run it on the simulated 100-GbE testbed, and report throughput, latency,
// and perf counters. With -emit-ir it prints the dispatch-level IR of the
// (optimized) build instead of running.
//
// Examples:
//
//	packetmill -config router.click -freq 2.3 -rate 100
//	packetmill -config router.click -mill -model x-change -freq 2.3
//	packetmill -builtin router -mill -mill-profile auto -freq 2.3
//	packetmill -builtin router -mill -emit-ir
//	packetmill -builtin forwarder -model overlaying -sweep-freq
//
// The -io flag selects the packet I/O backend:
//
//	-io sim   the simulated two-node testbed (default; all flags apply)
//	-io pcap  offline: read frames from -pcap-in (pcap/pcapng/native),
//	          push them through the build on the simulated machine, and
//	          write every departing frame to -pcap-out
//	-io wire  live: serve the build on real datagram sockets — frames
//	          arrive on -wire-rx (unix:PATH or udp:HOST:PORT) and leave
//	          via -wire-tx; exits after -wire-count packets or once the
//	          wire has been idle for -wire-idle
//
//	packetmill -config nat.click -mill -io pcap -pcap-in in.pcap -pcap-out out.pcap
//	packetmill -config nat.click -mill -io wire -wire-rx unix:/tmp/mill-rx.sock -wire-tx unix:/tmp/mill-tx.sock
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/core"
	_ "packetmill/internal/elements"
	"packetmill/internal/faults"
	"packetmill/internal/flowlog"
	"packetmill/internal/flowlog/diagnose"
	"packetmill/internal/layout"
	"packetmill/internal/mill"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/overload"
	"packetmill/internal/simrand"
	"packetmill/internal/stats"
	"packetmill/internal/testbed"
	"packetmill/internal/trace"
	"packetmill/internal/trafficgen"
	"packetmill/internal/verify"
	"packetmill/internal/wire"
	"packetmill/internal/wire/pcapio"
)

func main() {
	var (
		configPath = flag.String("config", "", "Click configuration file")
		builtin    = flag.String("builtin", "", "built-in NF: forwarder|mirror|router|ids|nat|conntrack|workpackage")
		model      = flag.String("model", "copying", "metadata model: copying|overlaying|x-change")
		doMill     = flag.Bool("mill", false, "apply PacketMill source-code passes")
		millProf   = flag.String("mill-profile", "", `apply the profile-guided passes (hot layout, classifier compilation, element fusion) driven by this telemetry report JSON (from -report json or a /report snapshot); "auto" captures a fresh profile with a short run`)
		doReorder  = flag.Bool("reorder", false, "run the profile-guided metadata reordering pass")
		doPrune    = flag.Bool("prune", false, "run the profile-guided dead-field removal pass")
		repeats    = flag.Int("repeats", 1, "repeat the run N times with varied seeds, report the median (NPF style)")
		verifyRun  = flag.Bool("verify", false, "differentially verify this build against vanilla FastClick (byte-identical output)")
		emitIR     = flag.Bool("emit-ir", false, "print the dispatch-level IR and exit")
		freq       = flag.Float64("freq", 2.3, "core frequency (GHz)")
		rate       = flag.Float64("rate", 100, "offered load per NIC (Gbps)")
		packets    = flag.Int("packets", 50000, "frames to offer per NIC")
		size       = flag.Int("size", 0, "fixed frame size (0 = campus mix)")
		cores      = flag.Int("cores", 1, "DUT cores")
		nics       = flag.Int("nics", 1, "NICs")
		sweepFreq  = flag.Bool("sweep-freq", false, "sweep 1.2–3.0 GHz and print a table")
		seed       = flag.Uint64("seed", 1, "experiment seed")
		faultSpec  = flag.String("faults", "", `fault schedule (e.g. "drop p=0.01; flap at=1ms for=100us"), or "random" for a seeded random draw`)
		faultSeed  = flag.Uint64("faults-seed", 0, "fault engine seed (0 = derive from -seed)")
		reportFmt  = flag.String("report", "text", "report format: text|json (json enables telemetry and prints the full per-core/per-queue/per-element report)")

		traceOut    = flag.String("trace-out", "", "write a Chrome/Perfetto trace of sampled packets to this file (enables the flight recorder; also the stall-dump path)")
		traceSample = flag.Int("trace-sample", 64, "with -trace-out: trace one in N received packets")
		metricsAddr = flag.String("metrics", "", "-io wire: serve live Prometheus metrics on this address (e.g. :9100) at /metrics, full JSON report at /report, flow records at /flows")
		flowsOut    = flag.String("flows-out", "", "arm the flow log and write the run's conntrack-enriched flow records to this file as JSON lines, with a scenario diagnosis on the note stream")

		ioMode     = flag.String("io", "sim", "packet I/O backend: sim|wire|pcap")
		pcapIn     = flag.String("pcap-in", "", "-io pcap: input capture (pcap/pcapng/native trace)")
		pcapOut    = flag.String("pcap-out", "", "-io pcap: write departing frames to this capture")
		pcapRepeat = flag.Int("pcap-repeat", 1, "-io pcap: replay the input N times")
		wireRx     = flag.String("wire-rx", "", "-io wire: address to receive frames on (unix:PATH or udp:HOST:PORT)")
		wireTx     = flag.String("wire-tx", "", "-io wire: address to transmit frames to")
		wireIdle   = flag.Duration("wire-idle", 2*time.Second, "-io wire: exit after this long with no traffic (0 = never)")
		wireCount  = flag.Int("wire-count", 0, "-io wire: exit after this many packets (0 = unlimited)")

		trafficKind = flag.String("traffic", "campus", "offered traffic: campus, priority (campus with a 10% high-precedence share, TOS 0xE0 = class 7), churn (Zipf flow churn with TCP lifecycles), synflood (distinct half-opens), or storm (handshake waves separated by idle gaps)")
		ovlPolicy   = flag.String("overload-policy", "", "arm the overload control plane with this RX admission policy: none|tail-drop|red|priority")
		ovlHigh     = flag.Float64("overload-high", 0, "overload: high occupancy watermark, fraction of ring (0 = default 0.85)")
		ovlLow      = flag.Float64("overload-low", 0, "overload: low occupancy watermark (0 = default 0.35)")
		ovlLossless = flag.Bool("overload-lossless", false, "overload: lossless backpressure — pause RX instead of mid-graph drops")
		ovlDegrade  = flag.Float64("overload-degrade", 0, "overload: ring occupancy that leaves Healthy and arms the shedder (0 = default 0.5; set below the shedding equilibrium or the machine flaps)")
		ovlDwell    = flag.Duration("overload-dwell", 0, "overload: health-state dwell time before another transition (0 = default 50µs)")
	)
	flag.Parse()

	jsonReport := false
	switch strings.ToLower(*reportFmt) {
	case "text":
	case "json":
		jsonReport = true
	default:
		fatal(fmt.Errorf("unknown report format %q (want text or json)", *reportFmt))
	}
	// With -report json, stdout carries exactly one JSON document; pass
	// notes and fault banners move to stderr.
	note := func(format string, args ...any) {
		w := os.Stdout
		if jsonReport {
			w = os.Stderr
		}
		fmt.Fprintf(w, format, args...)
	}

	config, err := loadConfig(*configPath, *builtin)
	if err != nil {
		fatal(err)
	}

	p, err := core.Parse(config)
	if err != nil {
		fatal(err)
	}
	switch strings.ToLower(*model) {
	case "copying":
		p.Model = click.Copying
	case "overlaying":
		p.Model = click.Overlaying
	case "x-change", "xchange", "xchg":
		p.Model = click.XChange
	default:
		fatal(fmt.Errorf("unknown model %q", *model))
	}
	if *doMill {
		if err := p.Mill(); err != nil {
			fatal(err)
		}
	}

	base := testbed.Options{
		FreqGHz: *freq, RateGbps: *rate, Packets: *packets,
		FixedSize: *size, Cores: *cores, NICs: *nics, Seed: *seed,
		FaultSeed: *faultSeed,
		Telemetry: jsonReport,
	}
	if *traceOut != "" {
		base.Trace = trace.NewRecorder(trace.Config{SampleEvery: *traceSample, Seed: *seed})
		base.StallTracePath = *traceOut
	}
	if *flowsOut != "" {
		base.FlowLog = flowlog.New(flowlog.Config{})
	}
	switch strings.ToLower(*trafficKind) {
	case "campus", "":
	case "priority", "prio":
		base.Traffic = func(nicID int, cfg trafficgen.Config) trafficgen.Source {
			return trafficgen.NewPriorityMix(cfg, 0.1, 0xE0)
		}
	case "churn":
		base.Traffic = func(nicID int, cfg trafficgen.Config) trafficgen.Source {
			return trafficgen.NewChurn(trafficgen.ChurnConfig{
				Config: cfg, Concurrent: 2048, FlowPackets: 8,
			})
		}
	case "synflood", "syn-flood":
		base.Traffic = func(nicID int, cfg trafficgen.Config) trafficgen.Source {
			return trafficgen.NewSYNFlood(cfg)
		}
	case "storm", "expiry-storm":
		base.Traffic = func(nicID int, cfg trafficgen.Config) trafficgen.Source {
			return trafficgen.NewExpiryStorm(cfg, 512, 1e7)
		}
	default:
		fatal(fmt.Errorf("unknown -traffic %q (want campus, priority, churn, synflood, or storm)", *trafficKind))
	}
	if *ovlPolicy != "" || *ovlLossless {
		policy, err := overload.ParsePolicy(*ovlPolicy)
		if err != nil {
			fatal(err)
		}
		base.Overload = &overload.Config{
			Policy:    policy,
			HighWater: *ovlHigh,
			LowWater:  *ovlLow,
			Lossless:  *ovlLossless,
			Health: overload.HealthConfig{
				DegradeOcc: *ovlDegrade,
				DwellNS:    float64(ovlDwell.Nanoseconds()),
			},
		}
	}
	if *faultSpec != "" {
		sched, err := parseFaults(*faultSpec, base)
		if err != nil {
			fatal(err)
		}
		base.Faults = sched
		note("; faults: %s\n", sched)
	}

	if *millProf != "" {
		var prof *mill.Profile
		if strings.ToLower(*millProf) == "auto" {
			po := base
			po.Packets = *packets / 10
			if prof, err = p.CaptureProfile(po); err != nil {
				fatal(err)
			}
		} else {
			raw, err := os.ReadFile(*millProf)
			if err != nil {
				fatal(err)
			}
			if prof, err = mill.LoadProfile(raw); err != nil {
				fatal(err)
			}
		}
		if err := p.MillProfileGuided(prof); err != nil {
			fatal(err)
		}
	}
	if *doPrune {
		prof := base
		prof.Packets = *packets / 10
		if err := p.PruneMetadata(prof); err != nil {
			fatal(err)
		}
	}
	if *doReorder {
		prof := base
		prof.Packets = *packets / 10
		if err := p.ReorderMetadata(prof, layout.ByAccessCount); err != nil {
			fatal(err)
		}
	}

	if *emitIR {
		fmt.Print(p.IR().Dump())
		return
	}

	for _, n := range p.Notes() {
		note("; pass: %s\n", n)
	}

	switch strings.ToLower(*ioMode) {
	case "sim":
	case "wire":
		runWire(p, base, *wireRx, *wireTx, *metricsAddr, *wireIdle, *wireCount, *flowsOut, note)
		writeTrace(base.Trace, *traceOut, note)
		return
	case "pcap":
		runPcap(p, base, *pcapIn, *pcapOut, *pcapRepeat, jsonReport, *configPath, *builtin, *flowsOut, note)
		writeTrace(base.Trace, *traceOut, note)
		return
	default:
		fatal(fmt.Errorf("unknown -io backend %q (want sim, wire, or pcap)", *ioMode))
	}

	if *verifyRun {
		vanilla, err := core.Parse(config)
		if err != nil {
			fatal(err)
		}
		vanilla.Model = click.Copying
		vo := base
		vo.Model = click.Copying
		vo.RateGbps = base.RateGbps / 4 // headroom: compare behaviour, not congestion
		bo := pipelineOptions(p, base)
		bo.RateGbps = vo.RateGbps
		rep, err := verify.DifferentialGraphs(vanilla.Plan.Graph, p.Plan.Graph, vo, bo)
		if err != nil {
			fatal(err)
		}
		note("verification: %s\n", rep)
		if !rep.Equivalent() {
			os.Exit(1)
		}
	}

	if *sweepFreq {
		fmt.Println("freq_ghz\tthroughput_gbps\tmpps\tmedian_us\tp99_us")
		for f := 1.2; f <= 3.01; f += 0.2 {
			o := base
			o.FreqGHz = f
			o.Telemetry = false // the sweep prints a table, not a report
			res, err := p.Run(o)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%.1f\t%.1f\t%.2f\t%.1f\t%.1f\n", f, res.Gbps(), res.Mpps(),
				stats.MicrosFromNS(res.Latency.Quantile(0.5)), stats.MicrosFromNS(res.Latency.Quantile(0.99)))
		}
		return
	}

	if *repeats > 1 {
		res, spread, err := testbed.RunRepeatedGraph(p.Plan.Graph, pipelineOptions(p, base), *repeats)
		if err != nil {
			fatal(err)
		}
		if jsonReport {
			emitJSON(res, configName(*configPath, *builtin))
			note("; spread: %d runs, throughput %.2f–%.2f Gbps\n",
				*repeats, spread.MinGbps, spread.MaxGbps)
		} else {
			testbed.WriteText(os.Stdout, res)
			fmt.Printf("spread:         %d runs, throughput %.2f–%.2f Gbps\n",
				*repeats, spread.MinGbps, spread.MaxGbps)
		}
		writeTrace(base.Trace, *traceOut, note)
		writeFlows(res.Flows, *flowsOut, note)
		return
	}
	res, err := p.Run(base)
	if err != nil {
		fatal(err)
	}
	if jsonReport {
		emitJSON(res, configName(*configPath, *builtin))
	} else {
		testbed.WriteText(os.Stdout, res)
	}
	writeTrace(base.Trace, *traceOut, note)
	writeFlows(res.Flows, *flowsOut, note)
}

// writeFlows dumps a run's flow records as JSON lines and prints the
// scenario diagnosis. No-op unless -flows-out armed the flow log.
func writeFlows(recs []flowlog.Record, path string, note func(string, ...any)) {
	if path == "" {
		return
	}
	if err := os.WriteFile(path, flowlog.JSONL(recs), 0o644); err != nil {
		fatal(err)
	}
	s := flowlog.Summarize(recs)
	note("; flows: %d records (%d tx-side pkts, %d drop-side pkts, %d unattributed) -> %s\n",
		s.Records, s.TxSidePackets, s.DropSidePackets, s.Unattributed, path)
	findings := diagnose.Run(recs, diagnose.Defaults())
	if len(findings) == 0 {
		note("; diagnosis: no scenario detected\n")
		return
	}
	for _, f := range findings {
		note("; diagnosis: %s — %s\n", f.Scenario, f.Summary)
	}
}

// writeTrace dumps the flight recorder as Chrome trace-event JSON —
// loadable in https://ui.perfetto.dev or chrome://tracing. No-op unless
// -trace-out enabled the recorder.
func writeTrace(rec *trace.Recorder, path string, note func(string, ...any)) {
	if rec == nil || path == "" {
		return
	}
	if err := os.WriteFile(path, rec.ChromeJSON(), 0o644); err != nil {
		fatal(err)
	}
	var sampled, lost uint64
	for _, ct := range rec.Cores() {
		sampled += ct.Sampled()
		lost += ct.Lost()
	}
	note("; trace: %d packets sampled (%d ring-evicted events), wrote %s — open in ui.perfetto.dev\n",
		sampled, lost, path)
}

// runWire serves the build on live datagram sockets: the -io wire mode.
func runWire(p *core.Pipeline, base testbed.Options, rxAddr, txAddr, metricsAddr string,
	idle time.Duration, maxPackets int, flowsOut string, note func(string, ...any)) {
	if rxAddr == "" && txAddr == "" {
		fatal(fmt.Errorf("-io wire needs -wire-rx and/or -wire-tx"))
	}
	if metricsAddr != "" {
		ms, err := trace.NewMetricsServer(metricsAddr)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		base.Metrics = ms
		base.Telemetry = true // /report serves the full JSON report
		note("; metrics: http://%s/metrics (Prometheus), /report (JSON), /flows (JSON lines)\n", ms.Addr())
	}
	var rxConn, txConn net.Conn
	var err error
	if rxAddr != "" {
		if rxConn, err = wire.Listen(rxAddr); err != nil {
			fatal(err)
		}
	}
	if txAddr != "" {
		if txConn, err = wire.Dial(txAddr); err != nil {
			fatal(err)
		}
	}
	o := pipelineOptions(p, base)
	var devsPerCore [][]nic.Port
	if base.Cores > 1 {
		// N run-to-completion cores behind one socket: a software-RSS
		// fanout demuxes the RX stream by flow hash into per-core queues
		// (TX is interleaved onto the shared socket).
		if rxConn == nil {
			fatal(fmt.Errorf("-cores %d with -io wire needs -wire-rx (the fanout demuxes the RX stream)", base.Cores))
		}
		fanout := wire.NewFanout(wire.Config{Name: "wire0"}, base.Cores, rxConn, txConn)
		defer fanout.Close()
		for c := 0; c < base.Cores; c++ {
			devsPerCore = append(devsPerCore, []nic.Port{fanout.Queue(c)})
		}
	} else {
		dev := wire.NewPort(wire.Config{Name: "wire0"}, rxConn, txConn)
		defer dev.Close()
		devsPerCore = [][]nic.Port{{dev}}
	}
	// Assembly (a large conntrack table takes ~150 ms) runs while the RX
	// ring already fills, so the note that tells a peer to start sending
	// comes only once the routers are built.
	d, engines, err := testbed.NewWireGraphPerCore(p.Plan.Graph, o, devsPerCore)
	if err != nil {
		fatal(err)
	}
	if base.Cores > 1 {
		note("; serving on rx=%s tx=%s (model %s, %d cores)\n",
			rxAddr, txAddr, o.Model, base.Cores)
	} else {
		note("; serving on rx=%s tx=%s (model %s)\n", rxAddr, txAddr, o.Model)
	}
	st, err := d.ServeWire(context.Background(), engines, idle, uint64(maxPackets))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wire session:   %d scheduling rounds, %d packets moved\n", st.Steps, st.Packets)
	if len(devsPerCore) > 1 {
		// Per-core device rows; the totals come from the ledger below.
		for c, devs := range devsPerCore {
			rxs, txs := devs[0].RXStats(), devs[0].TXStats()
			fmt.Printf("core %d rx:      %d frames (%d bytes), drops: nobuf=%d full=%d runt=%d\n",
				c, rxs.Delivered, rxs.Bytes, rxs.DropNoBuf, rxs.DropFull, rxs.DropRunt)
			fmt.Printf("core %d tx:      %d frames (%d bytes), ring refusals=%d, drops: error=%d transient=%d oversize=%d\n",
				c, txs.Sent, txs.Bytes, txs.DropFull, txs.DropError, txs.DropTransient, txs.DropOversize)
		}
	}
	res := d.WireResult()
	testbed.WriteText(os.Stdout, res)
	if err := d.Audit(); err != nil {
		fatal(err)
	}
	writeFlows(res.Flows, flowsOut, note)
}

// runPcap mills a capture offline: frames come from a file, traverse the
// build on the simulated machine, and every departing frame is written
// to the output capture. This is the -io pcap mode.
func runPcap(p *core.Pipeline, base testbed.Options, in, out string,
	repeat int, jsonReport bool, configPath, builtin, flowsOut string,
	note func(string, ...any)) {
	if in == "" {
		fatal(fmt.Errorf("-io pcap needs -pcap-in FILE"))
	}
	f, err := os.Open(in)
	if err != nil {
		fatal(err)
	}
	tr, err := trafficgen.ReadAnyTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if tr.Len() == 0 {
		fatal(fmt.Errorf("%s holds no frames", in))
	}

	var w *pcapio.Writer
	var outFile *os.File
	if out != "" {
		if outFile, err = os.Create(out); err != nil {
			fatal(err)
		}
		wo := pcapio.WriterOptions{Format: pcapio.FormatPcap, Nanosecond: true}
		if strings.HasSuffix(out, ".pcapng") {
			wo.Format = pcapio.FormatPcapNG
		}
		if w, err = pcapio.NewWriter(outFile, wo); err != nil {
			fatal(err)
		}
	}

	o := base
	o.Packets = tr.Len() * repeat
	o.Traffic = func(int, trafficgen.Config) trafficgen.Source { return tr.Replay(repeat) }
	if w != nil {
		o.Tap = func(frame []byte, departNS float64) {
			if err := w.WriteFrame(frame, int64(departNS)); err != nil {
				fatal(err)
			}
		}
	}
	res, err := p.Run(o)
	if err != nil {
		fatal(err)
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := outFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "; wrote %d frames to %s\n", w.Frames(), out)
	}
	writeFlows(res.Flows, flowsOut, note)
	if jsonReport {
		emitJSON(res, configName(configPath, builtin))
		return
	}
	testbed.WriteText(os.Stdout, res)
}

// configName labels the run for the JSON report's config echo.
func configName(path, builtin string) string {
	if path != "" {
		return path
	}
	return "builtin:" + strings.ToLower(builtin)
}

// emitJSON prints the run's telemetry report as the process's single
// stdout document.
func emitJSON(res *testbed.Result, config string) {
	rep := res.Telemetry
	if rep == nil {
		fatal(fmt.Errorf("run produced no telemetry report"))
	}
	rep.Config.Config = config
	raw, err := rep.JSON()
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

// pipelineOptions folds the pipeline's plan into testbed options the same
// way Pipeline.Run does (kept here to avoid exporting the helper).
func pipelineOptions(p *core.Pipeline, o testbed.Options) testbed.Options {
	o.Model = p.Model
	o.Opt = p.Plan.Opt
	if p.Plan.MetaLayout != nil {
		o.MetaLayout = p.Plan.MetaLayout
	}
	return o
}

// parseFaults reads -faults: a literal schedule, or "random" for a
// seeded draw scaled to the run's rough duration.
func parseFaults(spec string, o testbed.Options) (*faults.Schedule, error) {
	if strings.ToLower(spec) != "random" {
		return faults.Parse(spec)
	}
	seed := o.FaultSeed
	if seed == 0 {
		seed = o.Seed ^ 0x5eedfa17
	}
	avg := 981.0 // campus-mix mean frame size
	if o.FixedSize > 0 {
		avg = float64(o.FixedSize)
	}
	durationNS := float64(o.Packets) * (avg + 20) * 8 / o.RateGbps
	return faults.Random(simrand.New(seed), durationNS), nil
}

func loadConfig(path, builtin string) (string, error) {
	if path != "" {
		b, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	switch strings.ToLower(builtin) {
	case "forwarder":
		return nf.Forwarder(0, 32), nil
	case "mirror":
		return nf.Mirror(0, 32), nil
	case "router":
		return nf.Router(32), nil
	case "ids":
		return nf.IDSRouter(32), nil
	case "nat":
		return nf.NATRouter(32), nil
	case "conntrack":
		return nf.ConnTrackForwarder(32, 65536), nil
	case "workpackage":
		return nf.WorkPackageForwarder(32, 4, 1, 4), nil
	case "":
		return "", fmt.Errorf("need -config FILE or -builtin NAME")
	default:
		return "", fmt.Errorf("unknown builtin %q", builtin)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "packetmill:", err)
	os.Exit(1)
}
