package testbed

import (
	"sort"
	"testing"

	"packetmill/internal/click"
	_ "packetmill/internal/elements"
	"packetmill/internal/nf"
)

func TestRunRepeatedMedian(t *testing.T) {
	res, sp, err := RunRepeatedGraph(mustParse(t, nf.Forwarder(0, 32)), Options{
		FreqGHz: 1.4, Model: click.Copying, FixedSize: 512,
		RateGbps: 100, Packets: 4000,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("median run empty")
	}
	if len(sp.Gbps) != 5 {
		t.Fatalf("spread has %d runs", len(sp.Gbps))
	}
	if !sort.Float64sAreSorted(sp.Gbps) {
		t.Fatal("spread not sorted")
	}
	if sp.MinGbps > sp.MaxGbps {
		t.Fatal("spread inverted")
	}
	med := res.Gbps()
	if med < sp.MinGbps || med > sp.MaxGbps {
		t.Fatalf("median %.2f outside [%.2f, %.2f]", med, sp.MinGbps, sp.MaxGbps)
	}
}

func TestRunRepeatedSeedsVaryRuns(t *testing.T) {
	// With the campus mix the interleavings differ per seed; the runs
	// must not be byte-identical in throughput (that would mean seeds
	// aren't applied).
	_, sp, err := RunRepeatedGraph(mustParse(t, nf.Router(32)), Options{
		FreqGHz: 1.2, Model: click.Copying, RateGbps: 100, Packets: 4000,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sp.MinGbps == sp.MaxGbps {
		t.Fatal("all repeats identical; seed variation not applied")
	}
}

func TestRunRepeatedBadConfig(t *testing.T) {
	// An unbuildable graph (an element class no registry knows) must
	// fail the first repeat, not yield an empty median.
	if _, _, err := RunRepeatedGraph(mustParse(t, "x :: NoSuchElement;"), Options{}, 2); err == nil {
		t.Fatal("garbage accepted")
	}
}
