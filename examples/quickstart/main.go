// Quickstart: mill a ten-line forwarder and watch X-Change + the
// source-code passes move the throughput — the paper's Listing 3 NF,
// end to end, in one screen of code.
package main

import (
	"fmt"
	"log"

	"packetmill/internal/click"
	"packetmill/internal/core"
	_ "packetmill/internal/elements"
	"packetmill/internal/testbed"
)

const config = `
// A simple forwarder: receive, swap MACs, transmit (paper Listing 3).
input  :: FromDPDKDevice(PORT 0, N_QUEUES 1, BURST 32);
output :: ToDPDKDevice(PORT 0, BURST 32);
input -> EtherMirror -> output;
`

func main() {
	opts := testbed.Options{FreqGHz: 2.3, RateGbps: 100, Packets: 40000}

	// Vanilla: FastClick defaults — Copying model, dynamic graph,
	// virtual dispatch.
	vanilla, err := core.Parse(config)
	if err != nil {
		log.Fatal(err)
	}
	vanilla.Model = click.Copying
	vres, err := vanilla.Run(opts)
	if err != nil {
		log.Fatal(err)
	}

	// PacketMill: X-Change metadata + devirtualize + constant embedding
	// + static graph.
	milled, err := core.Parse(config)
	if err != nil {
		log.Fatal(err)
	}
	milled.Model = click.XChange
	if err := milled.Mill(); err != nil {
		log.Fatal(err)
	}
	for _, n := range milled.Notes() {
		fmt.Println("pass:", n)
	}
	mres, err := milled.Run(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-12s %10s %12s %10s\n", "build", "Gbps", "Mpps", "p99 µs")
	fmt.Printf("%-12s %10.1f %12.2f %10.1f\n", "vanilla",
		vres.Gbps(), vres.Mpps(), vres.Latency.Quantile(0.99)/1e3)
	fmt.Printf("%-12s %10.1f %12.2f %10.1f\n", "packetmill",
		mres.Gbps(), mres.Mpps(), mres.Latency.Quantile(0.99)/1e3)
	fmt.Printf("\nimprovement: %+.1f%% throughput, %+.1f%% p99 latency\n",
		(mres.Gbps()-vres.Gbps())/vres.Gbps()*100,
		(mres.Latency.Quantile(0.99)-vres.Latency.Quantile(0.99))/vres.Latency.Quantile(0.99)*100)
}
