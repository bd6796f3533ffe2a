package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one metric the benchmark reports. The e2e and layer lists
// below are the single source of the names BENCHMARK.json declares;
// TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// e2eMetrics are printed by every workload on an untraced run. Each is
// defined on every workload (see README.md for the per-workload reading).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_kpps", "kpps", "higher"},
	{"model_mpps_per_core", "Mpps", "higher"},
	{"lat_p50_us_low", "us", "lower"},
	{"lat_p99_us_low", "us", "lower"},
	{"lat_p50_us_high", "us", "lower"},
	{"lat_p99_us_high", "us", "lower"},
	{"mem_peak_mib", "MiB", "lower"},
}

// layerMetrics are printed by every workload on a traced run; a layer a
// workload never enters reads 0.
var layerMetrics = []metricDef{
	{"mill.parse_s", "s", "lower"},
	{"mill.static_s", "s", "lower"},
	{"mill.profile_s", "s", "lower"},
	{"mill.pgo_s", "s", "lower"},
	{"trafficgen.next_ns", "ns", "lower"},
	{"trafficgen.share", "share", "lower"},
	{"testbed.drive_ns_per_pkt", "ns", "lower"},
	{"testbed.serve_self_ns_per_pkt", "ns", "lower"},
	{"model.cycles_per_pkt.driver", "cycles", "lower"},
	{"model.cycles_per_pkt.pmd-rx", "cycles", "lower"},
	{"model.cycles_per_pkt.conversion", "cycles", "lower"},
	{"model.cycles_per_pkt.engine", "cycles", "lower"},
	{"model.cycles_per_pkt.pmd-tx", "cycles", "lower"},
	{"model.llc_miss_per_pkt", "count", "lower"},
	{"model.ipc", "ratio", "higher"},
	{"cache.llc_refs_per_pkt", "count", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"conntrack.track_ns", "ns", "lower"},
	{"conntrack.inserted_per_1k", "count", "lower"},
	{"conntrack.expired_per_1k", "count", "lower"},
	{"conntrack.evicted_per_1k", "count", "lower"},
	{"conntrack.refused_per_1k", "count", "lower"},
	{"flowlog.records", "count", "higher"},
	{"flowlog.ring_lost", "count", "lower"},
	{"wire.poll_ns", "ns", "lower"},
	{"wire.poll_batch", "pkts", "higher"},
	{"wire.empty_poll_share", "share", "lower"},
	{"wire.enqueue_ns", "ns", "lower"},
	{"wire.reap_ns", "ns", "lower"},
	{"wire.post_ns", "ns", "lower"},
	{"wire.rx_pending", "pkts", "lower"},
	{"wire.rx_drop_full", "count", "lower"},
	{"wire.tx_drop", "count", "lower"},
	{"gen.write_ns", "ns", "lower"},
	{"gen.late_us_p99", "us", "lower"},
	{"sink.read_ns", "ns", "lower"},
	{"runtime.allocs_per_pkt", "allocs", "lower"},
	{"runtime.allocs_per_pkt_whole", "allocs", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// report is one workload run's outcome.
type report struct {
	workload  string
	attempted uint64
	failed    uint64
	// problems lists every failed output check; any entry makes the run
	// incorrect.
	problems []string
	values   map[string]float64
	// notes are extra human-readable lines: the figures under the names
	// the workload's own vocabulary uses (sim_mpps, wire_fwd_kpps, ...).
	notes []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail books n failed operations with the check that caught them.
func (r *report) fail(n uint64, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// check returns the booking of a simulated run called name: one
// operation, failed on an error or a failed output check. The booking
// returns the run when it ran.
func (r *report) check(name string) func(*simRun, error) *simRun {
	return func(run *simRun, err error) *simRun {
		r.attempted++
		if err != nil {
			r.fail(1, "%s run: %v", name, err)
			return nil
		}
		if len(run.problems) > 0 {
			r.fail(1, "%s run: %v", name, run.problems)
		}
		return run
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport writes the human-readable block: every metric of the run
// by name with its unit, the workload's own figures, and failed_share.
func printReport(w io.Writer, r *report, defs []metricDef) {
	fmt.Fprintf(w, "# workload %s\n", r.workload)
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14s %s\n", d.Name, fmtValue(r.values[d.Name]), d.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %14s share (%d of %d operations)\n", "failed_share",
		fmtValue(share), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
}

// resultJSON renders the machine-readable last line. prefix namespaces the
// metric names when several workloads share one line.
func resultJSON(reps []*report, defs []metricDef, prefix bool) ([]byte, error) {
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range reps {
		out.Correct = out.Correct && r.correct()
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, d := range defs {
			v := r.values[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: metric %s is not finite", r.workload, d.Name)
			}
			name := d.Name
			if prefix {
				name = r.workload + "/" + d.Name
			}
			out.Metrics[name] = jsonMetric{Value: v, Unit: d.Unit}
		}
	}
	return json.Marshal(out)
}

func fmtValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linear-interpolated q-quantile of xs, sorted in place.
// +Inf samples (lost frames) sort last and win any quantile they reach.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return xs[lo]
	}
	if math.IsInf(xs[lo+1], 1) {
		return xs[lo+1]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// gcSnap is the GC ledger at one instant.
type gcSnap struct {
	cycles  uint32
	pauseNS uint64
	mallocs uint64
}

func readGC() gcSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{cycles: ms.NumGC, pauseNS: ms.PauseTotalNs, mallocs: ms.Mallocs}
}

// stackOut receives goroutine dumps.
var stackOut io.Writer = os.Stderr

// dumpStacks writes every goroutine's stack to stackOut: the post-mortem
// of an expired bound.
func dumpStacks(why string) {
	buf := make([]byte, 4<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(stackOut, "perfbench: %s; goroutine dump follows\n%s\n", why, buf[:n])
}
