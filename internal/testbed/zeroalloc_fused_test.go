package testbed

import (
	"testing"

	"packetmill/internal/click"
	"packetmill/internal/mill"
	"packetmill/internal/nf"
)

// The fusion zero-allocation gate: the profile-guided build — fused IP
// path, compiled classifier, SHARES telemetry attribution — must hold
// the same steady-state invariant as the plain datapath. Telemetry is ON
// here deliberately: the split-span scratch buckets are part of what the
// gate protects.
func TestSteadyStateZeroAllocsFusedRouter(t *testing.T) {
	plan, err := mill.NewPlan(nf.Router(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Apply(mill.PacketMill()...); err != nil {
		t.Fatal(err)
	}
	res, err := RunGraph(plan.Graph, Options{
		Model: click.XChange, Opt: plan.Opt,
		FreqGHz: 3.0, RateGbps: 5, Packets: 1000, Seed: 7, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	prof := mill.FromReport(res.Telemetry)
	if err := plan.Apply(mill.ProfileGuided(prof)...); err != nil {
		t.Fatal(err)
	}
	fused := false
	for _, e := range plan.Graph.Elements {
		if e.Class == "FusedIPPath" {
			fused = true
		}
	}
	if !fused {
		t.Fatalf("router graph did not fuse; notes: %v", plan.Notes)
	}

	o := Options{Model: click.XChange, Opt: plan.Opt, Telemetry: true}.withDefaults()
	d, err := NewDUT(o)
	if err != nil {
		t.Fatal(err)
	}
	routers, err := d.BuildRouters(plan.Graph)
	if err != nil {
		t.Fatal(err)
	}
	eng := &clickEngine{rt: routers[0]}

	frames := campusFrames(512)
	for _, f := range frames[:256] {
		pumpOne(d, eng, f)
	}
	next := 256
	avg := testing.AllocsPerRun(50, func() {
		pumpOne(d, eng, frames[next%len(frames)])
		next++
	})
	if avg != 0 {
		t.Errorf("fused router steady state allocates %.1f times per packet, want 0", avg)
	}
}
