package testbed

import (
	"errors"
	"fmt"
	"testing"

	"packetmill/internal/click"
	"packetmill/internal/machine"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/overload"
	"packetmill/internal/stats"
	"packetmill/internal/trafficgen"
)

// overloadRings is the adapter config the overload exhibits run with:
// rings small enough that admission control — not a 4096-deep buffer —
// is what bounds queueing delay under sustained overload.
func overloadRings() *nic.Config {
	cfg := nic.DefaultConfig("overload")
	cfg.RXRingSize = 256
	cfg.TXRingSize = 256
	return &cfg
}

// overloadNF is the CPU-bound workload the exhibits overload: the
// WorkPackage forwarder tuned so per-packet service time dwarfs the
// per-frame poll cost. That is the regime admission control is for — at
// 4× this NF's capacity the PMD can still shed at line rate, so loss
// happens at the RX boundary with attribution instead of as anonymous
// ring overruns. (A light NF at 4× outruns the shedder itself and the
// ring overflows before admission ever sees the frames.)
func overloadNF() string { return nf.WorkPackageForwarder(4, 16, 5, 200) }

// priorityConfig is the tuned control plane for the priority exhibits:
// tight watermarks keep the RX ring equilibrium shallow — the class-0
// shed threshold sits at a handful of frames, so an admitted
// high-priority frame queues behind very little — and the health
// thresholds sit below that equilibrium so the machine holds Degraded
// (shedder armed) for the duration of the overload.
func priorityConfig() *overload.Config {
	return &overload.Config{
		Policy:    overload.PolicyPriority,
		HighWater: 0.1,
		LowWater:  0.005,
		Health: overload.HealthConfig{
			DegradeOcc:  0.012,
			OverloadOcc: 0.6,
			RecoverOcc:  0.006,
			DwellNS:     5e3,
		},
	}
}

// TestOverloadPriorityExhibit is the acceptance exhibit: offer 4× the
// DUT's measured capacity with a 10% high-priority share, and check the
// priority shedder (a) sheds — at the RX boundary, fully attributed to
// the overload taxonomy — while (b) keeping the high-priority class's
// p99 latency within 2× of an uncontended run. Conservation must stay
// exact through all of it.
func TestOverloadPriorityExhibit(t *testing.T) {
	// Probe capacity: a saturating run; the achieved post-warmup
	// throughput is what the DUT can actually carry.
	probe, _, err := chaosRun(overloadNF(), Options{
		Model:     click.XChange,
		FreqGHz:   1.2,
		RateGbps:  100,
		Packets:   4000,
		NICConfig: overloadRings(),
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	capGbps := float64(probe.Bytes) * 8 / probe.Duration
	if capGbps <= 0 || capGbps >= 50 {
		t.Fatalf("capacity probe implausible: %.1f Gbps", capGbps)
	}

	runMix := func(rateGbps float64) (*Result, *DUT) {
		t.Helper()
		res, d, err := chaosRun(overloadNF(), Options{
			Model:     click.XChange,
			FreqGHz:   1.2,
			RateGbps:  rateGbps,
			Packets:   6000,
			NICConfig: overloadRings(),
			Overload:  priorityConfig(),
			Telemetry: true,
			Seed:      5,
			Traffic: func(n int, cfg trafficgen.Config) trafficgen.Source {
				return trafficgen.NewPriorityMix(cfg, 0.1, 0xE0)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, d
	}

	// Uncontended baseline at half capacity: the control plane is armed
	// but essentially never pressed — transient queue blips may shed a
	// stray frame, but nothing systematic — and the hi-class p99 is the
	// latency budget the overloaded run is held to.
	base, baseDUT := runMix(0.5 * capGbps)
	checkInvariants(t, base, baseDUT)
	if sheds := base.Overload[0].Sheds; sheds > base.Offered/100 {
		t.Fatalf("uncontended run shed %d of %d frames", sheds, base.Offered)
	}
	baseHiP99 := base.ClassLat[7].Quantile(0.99)
	if baseHiP99 <= 0 {
		t.Fatalf("baseline recorded no high-priority latency (count %d)",
			base.ClassLat[7].Count())
	}

	// 4× capacity, sustained.
	over, overDUT := runMix(4 * capGbps)
	checkInvariants(t, over, overDUT)

	st := over.Overload[0]
	if st.Sheds == 0 {
		t.Fatal("4x overload shed nothing")
	}
	if got := over.DropsByReason.Get(stats.DropOverloadPrio); got != st.Sheds {
		t.Fatalf("shed attribution: controller counted %d, taxonomy booked %d under %s",
			st.Sheds, got, stats.DropOverloadPrio)
	}
	if st.Transitions == 0 {
		t.Fatal("health state machine never left healthy under 4x load")
	}
	if over.ClassLat[7].Count() == 0 {
		t.Fatal("no high-priority frames survived the overload")
	}
	overHiP99 := over.ClassLat[7].Quantile(0.99)
	if overHiP99 > 2*baseHiP99 {
		t.Fatalf("high-priority p99 %.0f ns exceeds 2x the uncontended %.0f ns",
			overHiP99, baseHiP99)
	}

	// The run-level report mirrors the controller, state names spelled out.
	if len(over.Telemetry.Overload) != 1 {
		t.Fatalf("telemetry carries %d overload entries, want 1", len(over.Telemetry.Overload))
	}
	rep := over.Telemetry.Overload[0]
	if rep.Policy != "priority" || rep.Sheds != st.Sheds {
		t.Fatalf("report disagrees with controller: %+v vs %+v", rep, st)
	}
}

// TestOverloadShedVsUncontrolled: against the same 4x load, tail-drop
// admission must convert NIC-level hardware drops (ring overrun, paid
// after descriptor posting) into RX-boundary sheds — the cheapest
// possible loss — without losing conservation.
func TestOverloadShedVsUncontrolled(t *testing.T) {
	run := func(cfg *overload.Config) (*Result, *DUT) {
		t.Helper()
		res, d, err := chaosRun(overloadNF(), Options{
			Model:     click.XChange,
			FreqGHz:   1.2,
			RateGbps:  40, // ~4x this NF's capacity
			Packets:   5000,
			NICConfig: overloadRings(),
			Overload:  cfg,
			Seed:      7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, d
	}
	unctl, d1 := run(nil)
	checkInvariants(t, unctl, d1)
	if unctl.DropsByReason.Get(stats.DropRxNoBuf)+unctl.DropsByReason.Get(stats.DropRxRingFull) == 0 {
		t.Fatal("uncontrolled 4x run saw no NIC-level drops; load is not overload")
	}

	ctld, d2 := run(&overload.Config{
		Policy:    overload.PolicyTailDrop,
		HighWater: 0.1,
		LowWater:  0.005,
		Health: overload.HealthConfig{
			DegradeOcc: 0.012, OverloadOcc: 0.6, RecoverOcc: 0.006, DwellNS: 5e3,
		},
	})
	checkInvariants(t, ctld, d2)
	if ctld.Overload[0].Sheds == 0 {
		t.Fatal("tail-drop admission shed nothing under 4x load")
	}
	if got := ctld.DropsByReason.Get(stats.DropOverloadShed); got != ctld.Overload[0].Sheds {
		t.Fatalf("shed attribution: controller %d vs taxonomy %d",
			ctld.Overload[0].Sheds, got)
	}
}

// TestLosslessBackpressurePausesRX drives a buffered pipeline (Queue
// between the PMD and the mirror) faster than its puller drains it,
// with lossless backpressure on: the Queue must raise pressure at the
// high watermark, the PMD RX must pause, and the interval must be
// accounted — with no mid-graph overload drops anywhere.
func TestLosslessBackpressurePausesRX(t *testing.T) {
	config := fmt.Sprintf(`
input :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST %d);
output :: ToDPDKDevice(PORT 0, BURST %d);
input -> Queue(CAPACITY 128) -> Unqueue(BURST 4) -> EtherMirror -> output;
`, 32, 32)
	res, d, err := chaosRun(config, Options{
		Model:     click.XChange,
		FreqGHz:   1.2,
		RateGbps:  100,
		Packets:   3000,
		FixedSize: 200,
		Overload: &overload.Config{
			Lossless:  true,
			HighWater: 0.5,
			LowWater:  0.2,
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res, d)
	st := res.Overload[0]
	if st.Pauses == 0 {
		t.Fatal("lossless pipeline never paused RX")
	}
	if st.PausedNS <= 0 {
		t.Fatal("pause intervals not accounted")
	}
	if st.Raises < st.Pauses {
		t.Fatalf("raise accounting: %d raises < %d pauses", st.Raises, st.Pauses)
	}
	for _, r := range []stats.DropReason{
		stats.DropOverloadShed, stats.DropOverloadRED, stats.DropOverloadPrio,
	} {
		if n := res.DropsByReason.Get(r); n != 0 {
			t.Fatalf("lossless run booked %d drops under %s", n, r)
		}
	}
	if res.TxWire == 0 {
		t.Fatal("nothing forwarded")
	}
}

// TestWatchdogDrainRestartSelfHeals wedges the datapath the same way the
// StallError test does — a pathological slow receiver behind tiny rings —
// but with the control plane armed. The first watchdog trip must
// drain-and-restart instead of failing: flushed packets are booked under
// overload-restart, backpressure is released, the health machines land
// in recovering, and the run completes with conservation intact.
func TestWatchdogDrainRestartSelfHeals(t *testing.T) {
	lowerSimStallBound(t, 1e6) // 1 simulated ms, well inside the 3 ms wedge
	res, d, err := chaosRun(nf.Mirror(0, 32), Options{
		Model:     click.Copying,
		Packets:   400,
		FixedSize: 64,
		RateGbps:  100,
		NICConfig: smallRings(),
		Faults:    mustSched(t, "slowrx at=0 factor=1000000 for=3ms"),
		Overload:  &overload.Config{Policy: overload.PolicyTailDrop},
		Seed:      3,
	})
	if err != nil {
		t.Fatalf("self-healing run failed: %v", err)
	}
	checkInvariants(t, res, d)
	if res.WatchdogRestarts == 0 {
		t.Fatal("watchdog never drain-restarted")
	}
	if res.DropsByReason.Get(stats.DropOverloadRestart) == 0 {
		t.Fatal("drain-restart flushed nothing into the overload-restart reason")
	}
}

// lowerSimStallBound sets the simulated driver's stall bound to ns for
// the rest of the test.
func lowerSimStallBound(t *testing.T, ns float64) {
	saved := simStallBoundNS
	simStallBoundNS = ns
	t.Cleanup(func() { simStallBoundNS = saved })
}

// inertEngine never polls its queues — the one wedge a drain-and-restart
// cannot relieve, since there is nothing buffered to flush and nothing
// will ever move.
type inertEngine struct{}

func (inertEngine) Step(*machine.Core, float64) int { return 0 }

// TestWatchdogSecondTripStillFails: a wedge the restart cannot relieve
// must still surface as a StallError — self-healing is one retry per
// stall window, not an infinite loop. With a dead engine the RX ring
// stays pending forever, the restart drains nothing, and the second
// consecutive trip fails the run.
func TestWatchdogSecondTripStillFails(t *testing.T) {
	lowerSimStallBound(t, 1e6)
	_, err := RunEngines(Options{
		Model:     click.Copying,
		Packets:   50,
		FixedSize: 64,
		RateGbps:  100,
		NICConfig: smallRings(),
		Overload:  &overload.Config{Policy: overload.PolicyTailDrop},
		Seed:      3,
	}, func(d *DUT, core int) (Engine, error) {
		return inertEngine{}, nil
	})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v, want *StallError after the restart budget is spent", err)
	}
}

// TestSteadyStateZeroAllocsOverload: arming the control plane must not
// cost the datapath an allocation — admission runs on every received
// frame, and the observation path builds its signals on the stack.
func TestSteadyStateZeroAllocsOverload(t *testing.T) {
	d, eng := mirrorRigOpts(t, Options{
		Model:    click.XChange,
		Overload: &overload.Config{Policy: overload.PolicyTailDrop},
	})
	if d.Ctl(0) == nil {
		t.Fatal("control plane not armed")
	}
	frames := campusFrames(512)
	for _, f := range frames[:256] {
		pumpOne(d, eng, f)
	}
	if d.Ctl(0).Status(d.Cores[0].NowNS()).AdmitOK == 0 {
		t.Fatal("admission control saw no frames during warmup")
	}
	ob := d.newObserver(0)
	next := 256
	avg := testing.AllocsPerRun(50, func() {
		pumpOne(d, eng, frames[next%len(frames)])
		ob.next = 0 // observe on every packet, not only on the dwell cadence
		ob.step(d, eng, 0, d.Cores[0].NowNS())
		next++
	})
	if avg != 0 {
		t.Errorf("overload-armed steady state allocates %.1f times per packet, want 0", avg)
	}
}
