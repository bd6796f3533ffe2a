// IDS + router (Figure 8): a compute-heavier NF — TCP/UDP/ICMP header
// validation in front of the router, VLAN encapsulation behind it — swept
// across core frequency. Also demonstrates the profile-guided metadata
// reordering pass and the IR dump.
package main

import (
	"fmt"
	"log"

	"packetmill/internal/click"
	"packetmill/internal/core"
	_ "packetmill/internal/elements"
	"packetmill/internal/layout"
	"packetmill/internal/nf"
	"packetmill/internal/testbed"
)

func main() {
	cfg := nf.IDSRouter(32)

	// Show the reordering pass on the Copying-model build: profile a
	// short run, then re-pack the Packet descriptor.
	rp, err := core.Parse(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rp.Model = click.Copying
	profile := testbed.Options{FreqGHz: 2.3, RateGbps: 50, Packets: 5000}
	if err := rp.ReorderMetadata(profile, layout.ByAccessCount); err != nil {
		log.Fatal(err)
	}
	for _, n := range rp.Notes() {
		fmt.Println("pass:", n)
	}
	fmt.Println()

	// Frequency sweep, vanilla vs PacketMill.
	mk := func(milled bool) *core.Pipeline {
		p, err := core.Parse(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if milled {
			p.Model = click.XChange
			if err := p.Mill(); err != nil {
				log.Fatal(err)
			}
		} else {
			p.Model = click.Copying
		}
		return p
	}
	vanilla, milled := mk(false), mk(true)
	fmt.Println("freq_ghz\tvanilla_gbps\tpacketmill_gbps\tvanilla_med_us\tpacketmill_med_us")
	for _, f := range []float64{1.2, 1.8, 2.4, 3.0} {
		o := testbed.Options{FreqGHz: f, RateGbps: 100, Packets: 20000}
		v, err := vanilla.Run(o)
		if err != nil {
			log.Fatal(err)
		}
		m, err := milled.Run(o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n", f,
			v.Gbps(), m.Gbps(), v.Latency.Quantile(0.5)/1e3, m.Latency.Quantile(0.5)/1e3)
	}
}
