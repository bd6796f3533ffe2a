// Router at 100 Gbps: the paper's headline experiment (Figure 1) — the
// standards-compliant IP router on one 2.3-GHz core, vanilla vs milled,
// swept across offered load to expose the latency knee.
package main

import (
	"fmt"
	"log"

	"packetmill/internal/click"
	"packetmill/internal/core"
	_ "packetmill/internal/elements"
	"packetmill/internal/nf"
	"packetmill/internal/testbed"
)

func main() {
	cfg := nf.Router(32)

	build := func(milled bool) *core.Pipeline {
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
	vanilla, milled := build(false), build(true)

	fmt.Println("offered_gbps\tvanilla_gbps\tvanilla_p99_us\tpacketmill_gbps\tpacketmill_p99_us")
	for _, load := range []float64{10, 25, 50, 75, 100} {
		o := testbed.Options{FreqGHz: 2.3, RateGbps: load, Packets: 30000}
		v, err := vanilla.Run(o)
		if err != nil {
			log.Fatal(err)
		}
		m, err := milled.Run(o)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%.0f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			load, v.Gbps(), v.Latency.Quantile(0.99)/1e3, m.Gbps(), m.Latency.Quantile(0.99)/1e3)
	}
	fmt.Println("\nPacketMill shifts the knee right: more throughput before latency explodes.")
}
