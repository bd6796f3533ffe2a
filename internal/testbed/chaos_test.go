package testbed

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"packetmill/internal/click"
	"packetmill/internal/faults"
	"packetmill/internal/nf"
	"packetmill/internal/nic"
	"packetmill/internal/simrand"
	"packetmill/internal/stats"
	"packetmill/internal/trafficgen"
)

// chaosRun is RunGraph with the DUT kept for the post-run leak audit.
func chaosRun(config string, o Options) (*Result, *DUT, error) {
	g, err := click.Parse(config)
	if err != nil {
		return nil, nil, err
	}
	d, err := NewDUT(o)
	if err != nil {
		return nil, nil, err
	}
	routers, err := d.BuildRouters(g)
	if err != nil {
		return nil, nil, err
	}
	engines := make([]Engine, len(routers))
	for i, rt := range routers {
		engines[i] = &clickEngine{rt: rt}
	}
	res, err := d.Drive(engines)
	return res, d, err
}

// checkInvariants asserts the two chaos-run invariants: conservation
// (every offered frame left on the wire or is attributed to a drop
// reason) and zero leaked buffers/descriptors in every pool.
func checkInvariants(t *testing.T, res *Result, d *DUT) {
	t.Helper()
	if res.Offered != res.TxWire+res.DropsByReason.Total() {
		t.Fatalf("conservation violated: offered %d != tx %d + drops %d [%s]",
			res.Offered, res.TxWire, res.DropsByReason.Total(), res.DropsByReason.String())
	}
	if err := d.Audit(); err != nil {
		t.Fatalf("leak audit: %v", err)
	}
}

func mustSched(t *testing.T, src string) *faults.Schedule {
	t.Helper()
	s, err := faults.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// smallRings is an adapter config that makes overload faults bite with a
// small packet budget: a 64-buffer RX ring runs out of refills during a
// mempool-depletion window, and a 32-slot TX ring fills behind a slow
// receiver.
func smallRings() *nic.Config {
	cfg := nic.DefaultConfig("chaos")
	cfg.RXRingSize = 64
	cfg.TXRingSize = 32
	return &cfg
}

// TestChaosSurvivesEachFaultKind runs the forwarder under every fault
// type in the taxonomy. The pipeline must complete without panicking,
// conserve packets (rx == tx + Σ drops by reason), and leak nothing —
// and each fault must demonstrably fire.
func TestChaosSurvivesEachFaultKind(t *testing.T) {
	cases := []struct {
		name     string
		model    click.MetadataModel
		sched    string
		nicCfg   *nic.Config
		descPool int
		check    func(t *testing.T, res *Result)
	}{
		{
			name: "drop-iid", model: click.XChange,
			sched: "drop p=0.05",
			check: func(t *testing.T, res *Result) {
				if res.DropsByReason.Get(stats.DropWireFault) == 0 {
					t.Fatal("no wire drops injected")
				}
				if res.FaultStats.WireDrops != res.DropsByReason.Get(stats.DropWireFault) {
					t.Fatalf("engine/harness disagree: %d vs %d",
						res.FaultStats.WireDrops, res.DropsByReason.Get(stats.DropWireFault))
				}
			},
		},
		{
			name: "drop-bursty", model: click.Copying,
			sched: "drop burst=8 every=100",
			check: func(t *testing.T, res *Result) {
				if res.FaultStats.WireDrops == 0 {
					t.Fatal("no bursty drops injected")
				}
			},
		},
		{
			name: "corrupt", model: click.XChange,
			sched: "corrupt p=0.1 bits=4",
			check: func(t *testing.T, res *Result) {
				if res.FaultStats.Corruptions == 0 {
					t.Fatal("no corruptions injected")
				}
			},
		},
		{
			name: "truncate", model: click.Overlaying,
			sched: "truncate p=0.2 min=0",
			check: func(t *testing.T, res *Result) {
				if res.FaultStats.Truncations == 0 {
					t.Fatal("no truncations injected")
				}
				// Cuts below the 60-byte Ethernet minimum must surface as
				// MAC runt drops, not as crashes or silent loss.
				if res.DropsByReason.Get(stats.DropRxRunt) == 0 {
					t.Fatal("no runt drops from truncation")
				}
			},
		},
		{
			name: "flap", model: click.XChange,
			sched: "flap at=5us for=8us",
			check: func(t *testing.T, res *Result) {
				got := res.DropsByReason.Get(stats.DropLinkDown)
				if got == 0 {
					t.Fatal("link flap lost nothing")
				}
				if got != res.FaultStats.LinkDownDrops {
					t.Fatalf("link-down accounting: %d vs %d", got, res.FaultStats.LinkDownDrops)
				}
			},
		},
		{
			name: "rx-stall", model: click.XChange,
			sched: "stall at=5us for=10us",
			check: func(t *testing.T, res *Result) {
				// A stall delays completions but loses nothing by itself;
				// surviving the window with conservation intact is the test.
				if res.TxWire == 0 {
					t.Fatal("nothing forwarded across the stall")
				}
			},
		},
		{
			name: "deplete-desc", model: click.XChange,
			sched: "deplete target=desc at=5us for=10us",
			check: func(t *testing.T, res *Result) {
				if res.DropsByReason.Get(stats.DropPoolExhausted) == 0 {
					t.Fatal("descriptor depletion dropped nothing")
				}
			},
		},
		{
			name: "deplete-mempool", model: click.Copying,
			sched:  "deplete target=mempool at=5us for=10us",
			nicCfg: smallRings(),
			check: func(t *testing.T, res *Result) {
				// With refills gated and a 64-deep ring, arrivals overrun
				// the posted buffers: hardware-drop semantics.
				if res.DropsByReason.Get(stats.DropRxNoBuf) == 0 {
					t.Fatal("mempool depletion dropped nothing")
				}
			},
		},
		{
			name: "slowrx-backpressure", model: click.XChange,
			sched:  "slowrx at=0 factor=50 for=10us",
			nicCfg: smallRings(),
			// Size the exchange pool past the driver queue (ring + backlog)
			// so backpressure — not descriptor exhaustion — is what binds.
			descPool: 512,
			check: func(t *testing.T, res *Result) {
				// The driver-level queue absorbs the full TX ring, then
				// tail-drops with accounting.
				if res.DropsByReason.Get(stats.DropTxRingFull) == 0 {
					t.Fatal("slow receiver produced no tx-ring-full drops")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, d, err := chaosRun(nf.Mirror(0, 32), Options{
				Model:     tc.model,
				Packets:   1500,
				FixedSize: 200,
				RateGbps:  100,
				NICConfig: tc.nicCfg,
				DescPool:  tc.descPool,
				Faults:    mustSched(t, tc.sched),
				Seed:      11,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, res, d)
			if res.FaultStats == nil {
				t.Fatal("faulted run reported no FaultStats")
			}
			tc.check(t, res)
		})
	}
}

// TestCleanRunHasNoFaultResidue: with the fault layer compiled in but no
// schedule set, a run must report no injected faults and no fault-reason
// drops.
func TestCleanRunHasNoFaultResidue(t *testing.T) {
	res, d, err := chaosRun(nf.Mirror(0, 32), Options{
		Model: click.XChange, Packets: 1500, FixedSize: 200, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res, d)
	if res.FaultStats != nil {
		t.Fatal("clean run reported fault stats")
	}
	for _, r := range []stats.DropReason{stats.DropWireFault, stats.DropLinkDown} {
		if res.DropsByReason.Get(r) != 0 {
			t.Fatalf("clean run counted %s drops", r)
		}
	}
}

// replaySource feeds a recorded (frame, arrival) schedule back into a DUT.
type replaySource struct {
	frames [][]byte
	times  []float64
	i      int
}

func (s *replaySource) Next() ([]byte, float64, bool) {
	if s.i >= len(s.frames) {
		return nil, 0, false
	}
	f, ns := s.frames[s.i], s.times[s.i]
	s.i++
	return f, ns, true
}

func (s *replaySource) Remaining() int { return len(s.frames) - s.i }

// TestFaultedRunMatchesCleanReplay is the equivalence oracle for
// wire-level faults: a faulted run must produce byte-identical output to
// a clean run that is offered exactly the frames that survived injection,
// at the same arrival times. (Only wire faults qualify — stalls,
// depletion, and slow receivers change timing-dependent resource
// behavior, not the offered schedule.)
func TestFaultedRunMatchesCleanReplay(t *testing.T) {
	sched := mustSched(t, "drop p=0.1; corrupt p=0.1 bits=2; truncate p=0.1 min=40; flap at=5us for=3us")
	var frames [][]byte
	var times []float64
	var faultedOut [][]byte
	res, d, err := chaosRun(nf.Mirror(0, 32), Options{
		Model:    click.XChange,
		Packets:  1200,
		RateGbps: 100,
		Faults:   sched,
		Seed:     7,
		RxTap: func(nicID int, frame []byte, ns float64) {
			frames = append(frames, append([]byte(nil), frame...))
			times = append(times, ns)
		},
		Tap: func(frame []byte, departNS float64) {
			faultedOut = append(faultedOut, append([]byte(nil), frame...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res, d)
	if res.FaultStats.WireDrops == 0 || res.FaultStats.Corruptions == 0 {
		t.Fatalf("schedule did not bite: %+v", *res.FaultStats)
	}
	if uint64(len(frames)) != res.Offered-res.FaultStats.WireDrops-res.FaultStats.LinkDownDrops {
		t.Fatalf("RxTap saw %d frames, want offered %d minus %d consumed on the wire",
			len(frames), res.Offered, res.FaultStats.WireDrops+res.FaultStats.LinkDownDrops)
	}

	var replayOut [][]byte
	res2, d2, err := chaosRun(nf.Mirror(0, 32), Options{
		Model:    click.XChange,
		Packets:  1200,
		RateGbps: 100,
		Seed:     7,
		Traffic: func(nicID int, cfg trafficgen.Config) trafficgen.Source {
			return &replaySource{frames: frames, times: times}
		},
		Tap: func(frame []byte, departNS float64) {
			replayOut = append(replayOut, append([]byte(nil), frame...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, res2, d2)
	if len(faultedOut) != len(replayOut) {
		t.Fatalf("output counts differ: faulted %d vs replay %d", len(faultedOut), len(replayOut))
	}
	for i := range faultedOut {
		if !bytes.Equal(faultedOut[i], replayOut[i]) {
			t.Fatalf("output frame %d differs between faulted run and clean replay", i)
		}
	}
}

// TestWatchdogTripsOnWedgedPipeline wedges the datapath — a pathological
// slow receiver behind a tiny TX ring, so the backlog can never drain —
// and checks the watchdog converts the livelock into a *StallError with
// a diagnostic snapshot instead of spinning forever.
func TestWatchdogTripsOnWedgedPipeline(t *testing.T) {
	lowerSimStallBound(t, 1e6) // 1 simulated ms
	_, _, err := chaosRun(nf.Mirror(0, 32), Options{
		Model:     click.Copying,
		Packets:   400,
		FixedSize: 64,
		RateGbps:  100,
		NICConfig: smallRings(),
		Faults:    mustSched(t, "slowrx factor=1000000"),
		Seed:      3,
	})
	var stall *StallError
	if !errors.As(err, &stall) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if stall.Snapshot == "" {
		t.Fatal("stall error carries no diagnostic snapshot")
	}
	if stall.NowNS-stall.LastProgressNS < 1e6 {
		t.Fatalf("tripped after only %v ns of no progress", stall.NowNS-stall.LastProgressNS)
	}
}

// TestChaosSoak drives randomized fault schedules across seeds and
// metadata models; every run must finish, conserve packets, and leak
// nothing. This is the short-budget soak tier (`go test -run TestChaosSoak`).
func TestChaosSoak(t *testing.T) {
	models := []click.MetadataModel{click.Copying, click.Overlaying, click.XChange}
	r := simrand.New(0xC4405)
	for seed := uint64(1); seed <= 6; seed++ {
		sched := faults.Random(r, 3e4)
		model := models[int(seed)%len(models)]
		name := fmt.Sprintf("seed%d-%v", seed, model)
		t.Run(name, func(t *testing.T) {
			res, d, err := chaosRun(nf.Mirror(0, 32), Options{
				Model:     model,
				Packets:   1200,
				FixedSize: 200,
				RateGbps:  100,
				Faults:    sched,
				Seed:      seed,
				FaultSeed: seed * 977,
			})
			if err != nil {
				t.Fatalf("schedule %q: %v", sched, err)
			}
			checkInvariants(t, res, d)
		})
	}
}
