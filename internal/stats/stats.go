// Package stats provides the measurement side of the testbed:
// throughput computation, the drop taxonomy, curve fits, and small
// helpers for reporting in the units the paper uses (Gbps, Mpps, µs).
// Latency distributions live in trace.Hist.
package stats

import "fmt"

// Throughput summarizes a measured run.
type Throughput struct {
	Packets  uint64
	Bytes    uint64
	Duration float64 // ns
}

// Gbps returns goodput in gigabits per second.
func (t Throughput) Gbps() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.Bytes) * 8 / t.Duration
}

// Mpps returns millions of packets per second.
func (t Throughput) Mpps() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.Packets) * 1e3 / t.Duration
}

// Add accumulates another measurement (e.g., per-core partials). The
// duration keeps the maximum — cores run concurrently, not serially.
func (t *Throughput) Add(o Throughput) {
	t.Packets += o.Packets
	t.Bytes += o.Bytes
	if o.Duration > t.Duration {
		t.Duration = o.Duration
	}
}

// String renders "X.X Gbps / Y.YY Mpps".
func (t Throughput) String() string {
	return fmt.Sprintf("%.2f Gbps / %.3f Mpps", t.Gbps(), t.Mpps())
}

// MicrosFromNS converts nanoseconds to microseconds for reporting.
func MicrosFromNS(ns float64) float64 { return ns / 1e3 }
