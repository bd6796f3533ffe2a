package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"packetmill/internal/click"
	"packetmill/internal/core"
	"packetmill/internal/flowlog"
	"packetmill/internal/netpkt"
	"packetmill/internal/nf"
	"packetmill/internal/telemetry"
	"packetmill/internal/testbed"
	"packetmill/internal/trafficgen"
)

// simSpec is one simulated-testbed workload.
type simSpec struct {
	name     string
	config   string
	freqGHz  float64
	rateGbps float64
	// packets is the frame count of one timed run; every timed run of a
	// process repeats the same seeded run, so its modeled results must
	// repeat exactly.
	packets int
	// pgo adds profile capture and the profile-guided passes to set-up.
	pgo     bool
	flowLog bool
	source  func(cfg trafficgen.Config) trafficgen.Source
}

// simRouter is the paper's headline NF: CPU-bound at 1.6 GHz under the
// campus mix, stateless, never touching wire or conntrack.
var simRouter = simSpec{
	name: "sim-router", config: nf.Router(32), freqGHz: 1.6, rateGbps: 100,
	packets: 100000, pgo: true,
	source: func(cfg trafficgen.Config) trafficgen.Source { return trafficgen.NewCampus(cfg) },
}

// simNATChurn writes state on every packet: 64 B churn frames with a
// live population of half the NAT's 65536 entries, offered just above
// the modeled capacity (about 8.7 Mpps), so the core is saturated while
// the NIC drops only a few percent of the frames.
var simNATChurn = simSpec{
	name: "sim-nat-churn", config: nf.NATRouter(32), freqGHz: 2.3, rateGbps: 6,
	packets: 200000, flowLog: true,
	source: func(cfg trafficgen.Config) trafficgen.Source {
		return trafficgen.NewChurn(trafficgen.ChurnConfig{Config: cfg, Concurrent: 32768})
	},
}

const (
	// profilePackets sizes the profile-capture run of set-up.
	profilePackets = 5000
	// lowRateShare scales the workload's offered rate for the low-load
	// latency runs, which offer lowRatePackets frames.
	lowRateShare   = 0.1
	lowRatePackets = 50000
	// highRateShare scales it for the high-load latency runs: the modeled
	// core is busy, but its RX ring does not stay full. At the full rate
	// the ring stays full, a frame's residence is the ring's depth times
	// the host cost of a frame, and every host pause lands in the tail.
	highRateShare = 0.5
)

// options builds the testbed options of one run of the build p.
func (s simSpec) options(p *core.Pipeline, seed uint64, rateGbps float64, packets int) testbed.Options {
	o := testbed.Options{
		FreqGHz: s.freqGHz, RateGbps: rateGbps, Packets: packets, Seed: seed,
		Model: p.Model, Opt: p.Plan.Opt, MetaLayout: p.Plan.MetaLayout,
		Traffic: func(_ int, cfg trafficgen.Config) trafficgen.Source { return s.source(cfg) },
	}
	if s.flowLog {
		o.FlowLog = flowlog.New(flowlog.Config{})
	}
	return o
}

// simSetup is one set-up round's build and its timings.
type simSetup struct {
	p                                *core.Pipeline
	parse, static, profile, pgo, dut time.Duration
}

func (st *simSetup) total() time.Duration {
	return st.parse + st.static + st.profile + st.pgo + st.dut
}

// setup parses and mills the NF (profile-guided when the workload asks)
// and assembles one DUT for it, timing each step.
func (s simSpec) setup(seed uint64) (*simSetup, error) {
	st := &simSetup{}
	t := time.Now()
	p, err := core.Parse(s.config)
	if err != nil {
		return nil, fmt.Errorf("%s: parse: %w", s.name, err)
	}
	st.parse = time.Since(t)
	t = time.Now()
	p.Model = click.XChange
	if err := p.Mill(); err != nil {
		return nil, fmt.Errorf("%s: mill: %w", s.name, err)
	}
	st.static = time.Since(t)
	if s.pgo {
		t = time.Now()
		prof, err := p.CaptureProfile(s.options(p, seed, s.rateGbps, profilePackets))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		st.profile = time.Since(t)
		t = time.Now()
		if err := p.MillProfileGuided(prof); err != nil {
			return nil, fmt.Errorf("%s: profile-guided mill: %w", s.name, err)
		}
		st.pgo = time.Since(t)
	}
	t = time.Now()
	d, err := testbed.NewDUT(s.options(p, seed, s.rateGbps, s.packets))
	if err != nil {
		return nil, fmt.Errorf("%s: DUT: %w", s.name, err)
	}
	if _, err := d.BuildRouters(p.Plan.Graph); err != nil {
		return nil, fmt.Errorf("%s: routers: %w", s.name, err)
	}
	st.dut = time.Since(t)
	st.p = p
	return st, nil
}

// simRun is one driven run and what the benchmark checked about it.
type simRun struct {
	res     *testbed.Result
	routers []*click.Router
	// drive is the wall time of Drive alone (DUT assembly excluded).
	drive time.Duration
	// allocs counts heap objects allocated by the whole call.
	allocs   uint64
	problems []string
}

// runSim assembles a DUT for g, drives o's traffic through it, and runs
// the output checks: conservation, the buffer audit, and (with a flow
// log) exact flow-record reconciliation. With a tracer, the traffic
// source is wrapped and Drive becomes a span.
func runSim(g *click.Graph, o testbed.Options, tr *tracer) (*simRun, error) {
	if tr != nil {
		inner := o.Traffic
		o.Traffic = func(n int, cfg trafficgen.Config) trafficgen.Source {
			return &timedSource{Source: inner(n, cfg), tr: tr}
		}
	}
	run := &simRun{}
	var dut *testbed.DUT
	var driveStart time.Time
	m0 := readGC().mallocs
	res, err := testbed.RunEngines(o, func(d *testbed.DUT, c int) (testbed.Engine, error) {
		if run.routers == nil {
			rs, err := d.BuildRouters(g)
			if err != nil {
				return nil, err
			}
			dut, run.routers = d, rs
		}
		if c == len(run.routers)-1 {
			// Drive allocates nothing in steady state: collecting the
			// assembly's garbage now keeps the collector out of the run.
			runtime.GC()
			tr.begin(spanDrive)
			driveStart = time.Now()
		}
		return &routerEngine{rt: run.routers[c]}, nil
	})
	if !driveStart.IsZero() {
		run.drive = time.Since(driveStart)
		tr.end()
	}
	run.allocs = readGC().mallocs - m0
	if err != nil {
		return nil, err
	}
	run.res = res
	if got := res.TxWire + res.DropsByReason.Total(); res.Offered != got {
		run.problems = append(run.problems, fmt.Sprintf("conservation: offered %d != tx %d + drops %d",
			res.Offered, res.TxWire, res.DropsByReason.Total()))
	}
	if err := dut.Audit(); err != nil {
		run.problems = append(run.problems, fmt.Sprintf("audit: %v", err))
	}
	if o.FlowLog != nil {
		if rc := flowlog.Reconcile(res.Flows, res.Offered, res.TxWire, &res.DropsByReason); !rc.Exact {
			run.problems = append(run.problems, fmt.Sprintf("flow records do not reconcile: %+v", rc))
		}
	}
	return run, nil
}

// simSignature is what two runs of one seeded build must agree on.
type simSignature struct {
	offered, tx, drops uint64
	mpps               float64
}

func signatureOf(res *testbed.Result) simSignature {
	return simSignature{res.Offered, res.TxWire, res.DropsByReason.Total(), res.Mpps()}
}

// Work items of a sim-* run's timed loop. The loop cycles through them
// so that slow drifts of the host's speed fall on every figure alike.
const (
	itemRun     = iota // a timed run: host_kpps and the modeled figures
	itemTraced         // the same run with its source and Drive as spans
	itemSetup          // one more set-up round: setup_s and mill.*
	itemLatLow         // a residence-time run at the low rate
	itemLatHigh        // a residence-time run at the high rate
)

var (
	untracedCycle = []int{itemRun, itemLatLow, itemRun, itemSetup, itemRun, itemLatHigh, itemRun, itemSetup}
	// The traced cycle runs plain and traced runs in both orders, so a
	// drift of the host's speed falls on neither side of the overhead.
	tracedCycle = []int{itemRun, itemTraced, itemSetup, itemTraced, itemRun, itemSetup}
)

// runSimWorkload runs one sim-* workload: seconds of a timed loop that
// cycles timed runs, residence-time runs (untraced) or traced runs
// (traced), and set-up rounds.
func runSimWorkload(s simSpec, seed uint64, seconds float64, traced bool, spansPath string) (*report, error) {
	r := newReport(s.name)
	check := r.check(s.name)

	st, err := s.setup(seed)
	if err != nil {
		return nil, err
	}
	setups := []*simSetup{st}
	p := st.p
	g := p.Plan.Graph
	if traced {
		if err := simLayers(s, r, p, seed); err != nil {
			return nil, err
		}
	}

	cycle := untracedCycle
	if traced {
		cycle = tracedCycle
	}
	rates := map[int]float64{itemLatLow: s.rateGbps * lowRateShare, itemLatHigh: s.rateGbps * highRateShare}
	sizes := map[int]int{itemLatLow: lowRatePackets, itemLatHigh: s.packets}
	// lat holds each residence run's p50 and p99, in ns.
	lat := map[int][][2]float64{}
	var first *simSignature
	var plain, withSpans []float64 // wall ns per offered packet
	var tr *tracer
	if traced {
		tr = newTracer("dut", time.Now())
	}
	gc0 := readGC()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < len(cycle) || time.Now().Before(deadline); i++ {
		// Every item starts from a collected heap, so no item inherits
		// another's garbage.
		runtime.GC()
		switch item := cycle[i%len(cycle)]; item {
		case itemSetup:
			st, err := s.setup(seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, st)
		case itemLatLow, itemLatHigh:
			o := s.options(p, seed, rates[item], sizes[item])
			round := stampTraffic(&o, sizes[item])
			if check(runSim(g, o, nil)) != nil && len(*round) > 0 {
				lat[item] = append(lat[item], [2]float64{quantile(*round, 0.5), quantile(*round, 0.99)})
			}
		default:
			var t *tracer
			if item == itemTraced {
				t = tr
			}
			run := check(runSim(g, s.options(p, seed, s.rateGbps, s.packets), t))
			if run == nil {
				continue
			}
			sig := signatureOf(run.res)
			if first == nil {
				first = &sig
				r.set("model_mpps_per_core", run.res.Mpps())
			} else if sig != *first {
				r.fail(1, "%s: repeated seeded run diverged: %+v vs %+v", s.name, sig, *first)
			}
			nsPerPkt := float64(run.drive.Nanoseconds()) / float64(run.res.Offered)
			if t != nil {
				withSpans = append(withSpans, nsPerPkt)
			} else {
				plain = append(plain, nsPerPkt)
			}
		}
	}
	gc1 := readGC()
	if first == nil {
		return r, nil // every timed run failed; the report says why
	}

	r.set("setup_s", medianDur(setups, func(st *simSetup) time.Duration { return st.total() }))
	r.set("mill.parse_s", medianDur(setups, func(st *simSetup) time.Duration { return st.parse }))
	r.set("mill.static_s", medianDur(setups, func(st *simSetup) time.Duration { return st.static }))
	r.set("mill.profile_s", medianDur(setups, func(st *simSetup) time.Duration { return st.profile }))
	r.set("mill.pgo_s", medianDur(setups, func(st *simSetup) time.Duration { return st.pgo }))
	// Each percentile is the median over the residence runs of that run's
	// percentile, so one run a host hiccup hits does not move it.
	for item, suffix := range map[int]string{itemLatLow: "low", itemLatHigh: "high"} {
		runs := lat[item]
		if len(runs) == 0 {
			continue // a traced run has no residence-time runs
		}
		p50s, p99s := make([]float64, len(runs)), make([]float64, len(runs))
		for i, q := range runs {
			p50s[i], p99s[i] = q[0], q[1]
		}
		p50, p99 := median(p50s)/1e3, median(p99s)/1e3
		r.set("lat_p50_us_"+suffix, p50)
		r.set("lat_p99_us_"+suffix, p99)
		r.note("residence_us_p50_%s %s us, residence_us_p99_%s %s us (host wall-clock from NIC arrival to departure, %s Gbps offered, median of %d runs)",
			suffix, fmtValue(p50), suffix, fmtValue(p99), fmtValue(rates[item]), len(runs))
	}
	if m := median(plain); m > 0 {
		r.set("host_kpps", 1e6/m)
		r.note("sim_mpps %s Mpps (simulated packets per wall-clock second, %d runs)", fmtValue(1e3/m), len(plain))
	}
	r.note("model_mpps_per_core %s Mpps (modeled, %g GHz)", fmtValue(r.values["model_mpps_per_core"]), s.freqGHz)
	r.set("runtime.gc_cycles", float64(gc1.cycles-gc0.cycles))
	r.set("runtime.gc_pause_ms", float64(gc1.pauseNS-gc0.pauseNS)/1e6)
	if traced {
		if m := median(withSpans); m > 0 {
			r.set("trace.overhead_share", m/median(plain)-1)
		}
		drive, next := tr.layer(spanDrive), tr.layer(spanNext)
		if offered := float64(len(withSpans)) * float64(first.offered); offered > 0 {
			r.set("testbed.drive_ns_per_pkt", float64(drive.TotalNS)/offered)
		}
		r.set("trafficgen.next_ns", tr.meanNS(spanNext))
		if drive.TotalNS > 0 {
			r.set("trafficgen.share", float64(next.TotalNS)/float64(drive.TotalNS))
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, s.name, []*tracer{tr}); err != nil {
				return nil, err
			}
		}
	}
	mem, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	r.set("mem_peak_mib", mem)
	return r, nil
}

// simLayers fills the per-layer figures that come from dedicated runs:
// the modeled breakdown of a telemetry run, the state-plane counts, the
// steady-state allocation rate, and the cache and conntrack probes.
func simLayers(s simSpec, r *report, p *core.Pipeline, seed uint64) error {
	g := p.Plan.Graph
	o := s.options(p, seed, s.rateGbps, s.packets)
	o.Telemetry = true
	run := r.check(s.name + " telemetry")(runSim(g, o, nil))
	if run == nil {
		return nil
	}
	res, rep := run.res, run.res.Telemetry
	if rep == nil || rep.Totals.TxWire == 0 {
		return fmt.Errorf("%s: telemetry run produced no report", s.name)
	}
	tx := float64(rep.Totals.TxWire)
	for _, st := range rep.Stages {
		r.set("model.cycles_per_pkt."+st.Stage, st.Cycles/tx)
	}
	var misses uint64
	for _, c := range rep.Cores {
		misses += c.LLCLoadMisses
	}
	r.set("model.llc_miss_per_pkt", float64(misses)/tx)
	r.set("model.ipc", rep.Totals.IPC)
	if res.Packets > 0 {
		r.set("cache.llc_refs_per_pkt", float64(res.Counters.LLCLoads+res.Counters.LLCStores)/float64(res.Packets))
	}
	var ins, exp, evict, refused uint64
	for _, rt := range run.routers {
		for _, inst := range rt.Instances {
			fr, ok := inst.El.(telemetry.FlowReporter)
			if !ok {
				continue
			}
			cr := fr.FlowReport()
			ins += cr.Insertions
			exp += cr.Expirations
			for _, n := range cr.Evictions {
				evict += n
			}
			refused += cr.RefusedFull + cr.RefusedInvalid
		}
	}
	perK := 1e3 / float64(res.Offered)
	r.set("conntrack.inserted_per_1k", float64(ins)*perK)
	r.set("conntrack.expired_per_1k", float64(exp)*perK)
	r.set("conntrack.evicted_per_1k", float64(evict)*perK)
	r.set("conntrack.refused_per_1k", float64(refused)*perK)
	if o.FlowLog != nil {
		r.set("flowlog.records", float64(len(res.Flows)))
		r.set("flowlog.ring_lost", float64(o.FlowLog.RecordsLost()))
	}

	// Steady-state allocations: the difference between two run lengths
	// cancels set-up, which the whole-run figure (the bench baseline's
	// allocs_per_packet) includes.
	half := r.check(s.name + " half-length")(runSim(g, s.options(p, seed, s.rateGbps, s.packets/2), nil))
	full := r.check(s.name + " full-length")(runSim(g, s.options(p, seed, s.rateGbps, s.packets), nil))
	if half == nil || full == nil {
		return nil
	}
	steady := (float64(full.allocs) - float64(half.allocs)) / float64(full.res.Offered-half.res.Offered)
	if steady < 0 {
		steady = 0
	}
	r.set("runtime.allocs_per_pkt", steady)
	r.set("runtime.allocs_per_pkt_whole", float64(full.allocs)/float64(full.res.Offered))
	r.note("runtime.allocs_per_pkt %s steady state vs %s whole run (the bench baseline's allocs_per_packet)",
		fmtValue(steady), fmtValue(float64(full.allocs)/float64(full.res.Offered)))

	frames := sourceFrames(s, seed, probeFrames)
	r.set("cache.access_ns", cacheAccessNS(frames))
	r.set("conntrack.track_ns", conntrackTrackNS(frames, seed))
	return nil
}

// medianDur is the median of one set-up timing over the rounds, in s.
func medianDur(setups []*simSetup, f func(*simSetup) time.Duration) float64 {
	v := make([]float64, len(setups))
	for i, st := range setups {
		v[i] = f(st).Seconds()
	}
	return median(v)
}

// stampSource numbers every IPv4 frame it draws in the IP ID field and
// re-checksums the header, so a tap on the departing frames can match
// each to its arrival. Only the residence-time runs use it; the frames
// differ from the workload's in the IP ID alone, which no element of
// these NFs reads.
type stampSource struct {
	trafficgen.Source
	buf []byte
	id  uint16
}

func (s *stampSource) Next() ([]byte, float64, bool) {
	f, ns, ok := s.Source.Next()
	if !ok || !isIPv4(f) {
		return f, ns, ok
	}
	b := s.buf[:len(f)]
	copy(b, f)
	ip := b[netpkt.EtherHdrLen:]
	binary.BigEndian.PutUint16(ip[4:6], s.id)
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], netpkt.Checksum(ip[:int(ip[0]&0x0f)*4], 0))
	s.id++
	return b, ns, true
}

func isIPv4(f []byte) bool {
	return len(f) >= netpkt.EtherHdrLen+netpkt.IPv4HdrLen &&
		binary.BigEndian.Uint16(f[12:14]) == netpkt.EtherTypeIPv4
}

func ipID(f []byte) uint16 { return binary.BigEndian.Uint16(f[netpkt.EtherHdrLen+4:]) }

// stampTraffic arms o with a stamping source and arrival and departure
// taps, and returns the residence times (host ns from the frame's
// delivery to the DUT's NIC to its departure) the run will fill. IP IDs
// wrap at 65536, far above the frames a run holds in flight.
func stampTraffic(o *testbed.Options, packets int) *[]float64 {
	lat := make([]float64, 0, packets)
	base := time.Now()
	arrived := new([1 << 16]int64)
	inner := o.Traffic
	o.Traffic = func(n int, cfg trafficgen.Config) trafficgen.Source {
		return &stampSource{Source: inner(n, cfg), buf: make([]byte, 2048)}
	}
	o.RxTap = func(_ int, f []byte, _ float64) {
		if isIPv4(f) {
			arrived[ipID(f)] = int64(time.Since(base))
		}
	}
	o.Tap = func(f []byte, _ float64) {
		if isIPv4(f) {
			lat = append(lat, float64(int64(time.Since(base))-arrived[ipID(f)]))
		}
	}
	return &lat
}
