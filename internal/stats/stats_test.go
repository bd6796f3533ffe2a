package stats

import (
	"math"
	"testing"
)

func TestThroughputUnits(t *testing.T) {
	tp := Throughput{Packets: 1000, Bytes: 1000 * 1000, Duration: 1e6} // 1 ms
	// 8e6 bits in 1e6 ns = 8 Gbps; 1000 pkts in 1e-3 s = 1 Mpps.
	if g := tp.Gbps(); math.Abs(g-8) > 1e-9 {
		t.Fatalf("Gbps = %v", g)
	}
	if m := tp.Mpps(); math.Abs(m-1) > 1e-9 {
		t.Fatalf("Mpps = %v", m)
	}
	if tp.String() == "" {
		t.Fatal("empty string")
	}
}

func TestThroughputZeroDuration(t *testing.T) {
	tp := Throughput{Packets: 10, Bytes: 100}
	if tp.Gbps() != 0 || tp.Mpps() != 0 {
		t.Fatal("zero duration must yield zero rates")
	}
}

func TestThroughputAddConcurrentCores(t *testing.T) {
	a := Throughput{Packets: 10, Bytes: 100, Duration: 50}
	a.Add(Throughput{Packets: 20, Bytes: 200, Duration: 70})
	if a.Packets != 30 || a.Bytes != 300 || a.Duration != 70 {
		t.Fatalf("add: %+v", a)
	}
}

func TestMicros(t *testing.T) {
	if MicrosFromNS(1500) != 1.5 {
		t.Fatal("unit conversion")
	}
}
