package scenario

import (
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/simnet"
)

// casestudies.go scripts the §5 attacks with the timings and intensities
// the paper reports.

// component is one scripted attack component and its targeted ports.
type component struct {
	attacksim.Spec
	ports []uint16
}

// caseStudySpecs builds the scripted attack components and the associated
// geofencing blackouts.
func caseStudySpecs(w *World) (CaseStudies, []component, []simnet.Blackout) {
	var cs CaseStudies
	var specs []component
	var blackouts []simnet.Blackout

	transip := groupNS(w, "TransIP")
	if len(transip) >= 3 {
		copy(cs.TransIPNS[:], addrsOf(w, transip)[:3])
	}

	// --- TransIP December 2020 (§5.1, Table 2) -----------------------
	// RSDoS activity 2020-11-30 22:00 → 2020-12-01 12:30 UTC. Inferred
	// victim-side rates: A ≈ 124 kpps (21.8 kppm at the telescope),
	// B ≈ 21.6 kpps, C ≈ 16.5 kpps; ~1400-byte packets give the
	// 1.4 Gbps / 247 Mbps / 188 Mbps volumes.
	cs.TransIPDecStart = time.Date(2020, 11, 30, 22, 0, 0, 0, time.UTC)
	cs.TransIPDecEnd = time.Date(2020, 12, 1, 12, 30, 0, 0, time.UTC)
	decRates := []float64{124000, 21600, 16500}
	decPools := []int32{5_790_000, 1_570_000, 1_330_000}
	for i, ns := range transip[:min3(len(transip))] {
		specs = append(specs, component{attacksim.Spec{
			GroupID:        -1,
			Target:         w.DB.Nameservers[ns].Addr,
			Vector:         attacksim.VectorRandomSpoofed,
			Proto:          packet.ProtoTCP,
			Start:          cs.TransIPDecStart.UnixNano(),
			End:            cs.TransIPDecEnd.UnixNano(),
			PPS:            decRates[i],
			PacketBytes:    1400,
			SpoofedSources: decPools[i],
		}, []uint16{53}})
	}

	// --- TransIP March 2021 (§5.1, Table 2) --------------------------
	// Telescope peak ≈ 6× December: A ≈ 710 kpps, B ≈ 700 kpps,
	// C ≈ 74 kpps, plus telescope-invisible components that saturate
	// all three nameservers despite the scrubbing TransIP had deployed
	// by then — producing the ≈20% timeout plateau of Fig. 3 while the
	// visible impairment window matches the telescope window.
	cs.TransIPMarStart = time.Date(2021, 3, 2, 13, 0, 0, 0, time.UTC)
	cs.TransIPMarEnd = time.Date(2021, 3, 2, 19, 0, 0, 0, time.UTC)
	marRates := []float64{710000, 700000, 74000}
	marPools := []int32{7_000_000, 6_190_000, 823_000}
	for i, ns := range transip[:min3(len(transip))] {
		addr := w.DB.Nameservers[ns].Addr
		specs = append(specs,
			component{attacksim.Spec{
				GroupID:        -2,
				Target:         addr,
				Vector:         attacksim.VectorRandomSpoofed,
				Proto:          packet.ProtoTCP,
				Start:          cs.TransIPMarStart.UnixNano(),
				End:            cs.TransIPMarEnd.UnixNano(),
				PPS:            marRates[i],
				PacketBytes:    1400,
				SpoofedSources: marPools[i],
			}, []uint16{53}},
			component{attacksim.Spec{
				GroupID:     -2,
				Target:      addr,
				Vector:      attacksim.VectorDirect,
				Proto:       packet.ProtoTCP,
				Start:       cs.TransIPMarStart.UnixNano(),
				End:         cs.TransIPMarEnd.UnixNano(),
				PPS:         1.8e6,
				PacketBytes: 800,
			}, []uint16{53}},
		)
	}

	// --- mil.ru, March 11–18 2022 (§5.2.1) ---------------------------
	// Modest telescope-visible intensity, devastating overall effect;
	// the government geofenced the network from March 12 (blackout from
	// outside vantage points).
	milNS := groupNS(w, "MilRu Hosting")
	cs.MilRuNS = addrsOf(w, milNS)
	cs.MilRuStart = time.Date(2022, 3, 11, 9, 0, 0, 0, time.UTC)
	cs.MilRuEnd = time.Date(2022, 3, 18, 21, 0, 0, 0, time.UTC)
	for _, ns := range milNS {
		addr := w.DB.Nameservers[ns].Addr
		specs = append(specs,
			component{attacksim.Spec{
				GroupID:     -3,
				Target:      addr,
				Vector:      attacksim.VectorRandomSpoofed,
				Proto:       packet.ProtoTCP,
				Start:       cs.MilRuStart.UnixNano(),
				End:         cs.MilRuEnd.UnixNano(),
				PPS:         20000,
				PacketBytes: 60,
			}, []uint16{53}},
			component{attacksim.Spec{
				GroupID:     -3,
				Target:      addr,
				Vector:      attacksim.VectorDirect,
				Proto:       packet.ProtoTCP,
				Start:       cs.MilRuStart.UnixNano(),
				End:         cs.MilRuEnd.UnixNano(),
				PPS:         2e6,
				PacketBytes: 300,
			}, []uint16{53, 80, 443}},
		)
	}
	if len(cs.MilRuNS) > 0 {
		// the web site shares the nameservers' /24 (§5.2.3); attack it
		// too so the shared-upstream coupling is exercised
		webAddr := cs.MilRuNS[0].Slash24().Nth(250)
		specs = append(specs, component{attacksim.Spec{
			GroupID:     -3,
			Target:      webAddr,
			Vector:      attacksim.VectorRandomSpoofed,
			Proto:       packet.ProtoTCP,
			Start:       cs.MilRuStart.UnixNano(),
			End:         cs.MilRuEnd.UnixNano(),
			PPS:         50000,
			PacketBytes: 60,
		}, []uint16{80, 443}})
		blackouts = append(blackouts, simnet.Blackout{
			Prefix: cs.MilRuNS[0].Slash24(),
			From:   time.Date(2022, 3, 12, 0, 0, 0, 0, time.UTC),
			To:     time.Date(2022, 3, 17, 0, 0, 0, 0, time.UTC),
		})
	}

	// --- RDZ railways, March 8 2022 (§5.2.2) -------------------------
	// RSDoS activity 15:30–20:45; the IT-ARMY Telegram channel posted
	// the three nameserver IPs at 15:43 asking for a port-53/UDP flood.
	rzdNS := groupNS(w, "RZD Rail")
	cs.RZDNS = addrsOf(w, rzdNS)
	cs.RZDStart = time.Date(2022, 3, 8, 15, 30, 0, 0, time.UTC)
	cs.RZDEnd = time.Date(2022, 3, 8, 20, 45, 0, 0, time.UTC)
	cs.RZDTelegram = cs.RZDStart.Add(12 * time.Minute)
	for _, ns := range rzdNS {
		addr := w.DB.Nameservers[ns].Addr
		specs = append(specs,
			component{attacksim.Spec{
				GroupID:     -4,
				Target:      addr,
				Vector:      attacksim.VectorRandomSpoofed,
				Proto:       packet.ProtoUDP,
				Start:       cs.RZDStart.UnixNano(),
				End:         cs.RZDEnd.UnixNano(),
				PPS:         50000,
				PacketBytes: 400,
			}, []uint16{53}},
			component{attacksim.Spec{
				GroupID:     -4,
				Target:      addr,
				Vector:      attacksim.VectorDirect,
				Proto:       packet.ProtoUDP,
				Start:       cs.RZDTelegram.UnixNano(),
				End:         cs.RZDEnd.UnixNano(),
				PPS:         5e5,
				PacketBytes: 400,
			}, []uint16{53}},
		)
	}

	return cs, specs, blackouts
}

func min3(n int) int {
	if n > 3 {
		return 3
	}
	return n
}

// groupNS returns the nameserver IDs of a named provider's first group.
func groupNS(w *World, name string) []dnsdb.NameserverID {
	pid, ok := w.Named[name]
	if !ok {
		return nil
	}
	for _, g := range w.Groups {
		if g.Provider == pid {
			return g.NS
		}
	}
	return nil
}

func addrsOf(w *World, ns []dnsdb.NameserverID) []netx.Addr {
	out := make([]netx.Addr, len(ns))
	for i, id := range ns {
		out[i] = w.DB.Nameservers[id].Addr
	}
	return out
}
