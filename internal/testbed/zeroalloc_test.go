package testbed

import (
	"testing"

	"packetmill/internal/click"
	"packetmill/internal/nf"
	"packetmill/internal/trace"
	"packetmill/internal/trafficgen"
)

// The zero-allocation gate: once warm, the steady-state forwarding loop
// (EtherMirror over the campus mix) must not allocate per packet. Every
// layer this exercises — the PMD burst, the element scratch batches, the
// NIC descriptor rings, the buffer pools — recycles fixed storage, so a
// regression here means a heap allocation crept back into the datapath.

// campusFrames pre-generates n owned frames from the campus mix so frame
// generation is excluded from the allocation measurement.
func campusFrames(n int) [][]byte {
	src := trafficgen.NewCampus(trafficgen.Config{Seed: 7, RateGbps: 100, Count: n})
	frames := make([][]byte, 0, n)
	for {
		f, _, ok := src.Next()
		if !ok {
			break
		}
		frames = append(frames, append([]byte(nil), f...))
	}
	return frames
}

// mirrorRig assembles a one-core DUT running the Listing 3 EtherMirror
// forwarder under the given metadata model.
func mirrorRig(t testing.TB, model click.MetadataModel) (*DUT, *clickEngine) {
	t.Helper()
	return mirrorRigOpts(t, Options{Model: model})
}

// mirrorRigOpts is mirrorRig with full control over the options, so the
// gate can also run with the observability layers switched on.
func mirrorRigOpts(t testing.TB, o Options) (*DUT, *clickEngine) {
	t.Helper()
	o = o.withDefaults()
	d, err := NewDUT(o)
	if err != nil {
		t.Fatal(err)
	}
	g, err := click.Parse(nf.Mirror(0, 32))
	if err != nil {
		t.Fatal(err)
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		t.Fatal(err)
	}
	return d, &clickEngine{rt: routers[0]}
}

// pumpOne delivers one frame and steps the engine until the pipeline
// drains, fast-forwarding the core past the NIC's completion pacing.
func pumpOne(d *DUT, eng *clickEngine, frame []byte) {
	n, core := d.NICs[0], d.Cores[0]
	n.Deliver(0, frame, core.NowNS())
	for {
		for eng.Step(core, core.NowNS()) > 0 {
		}
		if n.RX(0).PendingCount() == 0 {
			return
		}
		if r := n.RX(0).NextReadyNS(); r > core.NowNS() {
			core.Idle(r)
		}
	}
}

func testSteadyStateZeroAllocs(t *testing.T, model click.MetadataModel, name string) {
	d, eng := mirrorRig(t, model)
	frames := campusFrames(512)
	if len(frames) < 300 {
		t.Fatalf("campus mix produced only %d frames", len(frames))
	}
	// Warm up: pools populate, rings fill, caches settle.
	for _, f := range frames[:256] {
		pumpOne(d, eng, f)
	}
	next := 256
	avg := testing.AllocsPerRun(50, func() {
		pumpOne(d, eng, frames[next%len(frames)])
		next++
	})
	if avg != 0 {
		t.Errorf("%s: steady-state forwarding allocates %.1f times per packet, want 0", name, avg)
	}
}

func TestSteadyStateZeroAllocsCopying(t *testing.T) {
	testSteadyStateZeroAllocs(t, click.Copying, "copying")
}

func TestSteadyStateZeroAllocsXChange(t *testing.T) {
	testSteadyStateZeroAllocs(t, click.XChange, "x-change")
}

// The observability gate: the flight recorder at its most aggressive
// setting (every packet sampled) plus full telemetry must still not
// allocate per packet once warm — the ring, the span stack, and the
// histograms are all fixed storage.
func TestSteadyStateZeroAllocsTraced(t *testing.T) {
	d, eng := mirrorRigOpts(t, Options{
		Model:     click.XChange,
		Telemetry: true,
		Trace:     trace.NewRecorder(trace.Config{SampleEvery: 1, Seed: 1}),
	})
	frames := campusFrames(512)
	for _, f := range frames[:256] {
		pumpOne(d, eng, f)
	}
	if got := d.Opts.Trace.Core(0).Sampled(); got == 0 {
		t.Fatal("recorder sampled nothing during warmup; the gate would measure an idle tracer")
	}
	next := 256
	avg := testing.AllocsPerRun(50, func() {
		pumpOne(d, eng, frames[next%len(frames)])
		next++
	})
	if avg != 0 {
		t.Errorf("traced steady-state forwarding allocates %.1f times per packet, want 0", avg)
	}
}

// BenchmarkSteadyStateForwarding reports the per-packet cost of the warm
// EtherMirror loop; run with -benchmem to watch the allocs/op gate.
func BenchmarkSteadyStateForwarding(b *testing.B) {
	d, eng := mirrorRig(b, click.XChange)
	frames := campusFrames(512)
	for _, f := range frames[:256] {
		pumpOne(d, eng, f)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pumpOne(d, eng, frames[i%len(frames)])
	}
}
