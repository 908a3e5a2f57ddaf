package rsdos_test

import (
	"fmt"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
)

// ExampleInfer curates raw telescope window observations into an attack
// record with the feed's schema: victim, interval, protocol, ports, and the
// telescope-side intensity signals.
func ExampleInfer() {
	victim := netx.MustParseAddr("192.0.2.53")
	var obs []rsdos.WindowObs
	for w := clock.Window(100); w < 104; w++ {
		obs = append(obs, rsdos.WindowObs{
			Window:     w,
			Victim:     victim,
			Packets:    600,
			PeakPPM:    130,
			Slash16:    150,
			UniqueDsts: 590,
			Proto:      packet.ProtoTCP,
			Ports:      []rsdos.PortCount{{Port: 53, N: 600}},
		})
	}
	attacks := rsdos.Infer(rsdos.DefaultConfig(), obs)
	a := attacks[0]
	fmt.Printf("victim %s, %s, port %d, %d packets, %v\n",
		a.Victim, a.Proto, a.FirstPort, a.TotalPackets, a.Duration())
	// extrapolate to the victim side with the UCSD scale factor ≈341
	fmt.Printf("inferred victim-side peak ≈ %.0f pps\n", a.InferredVictimPPS(341.3))
	// Output:
	// victim 192.0.2.53, TCP, port 53, 2400 packets, 20m0s
	// inferred victim-side peak ≈ 739 pps
}
