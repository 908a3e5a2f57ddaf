package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"testing"

	"dnsddos/internal/netx"
)

type namedWorld struct {
	name string
	cfg  WorldConfig
}

// worldConfigs are the worlds the digest test and BenchmarkGenerateWorld
// build: the default world cut to 3,000 domains, the repo benchmark's
// serve_clean world (2,000 domains on 20 generic providers) and its
// study_batch world (12,000 domains on 60), in that order.
func worldConfigs() []namedWorld {
	def := DefaultWorldConfig()
	def.Domains = 3000
	serve := WorldConfig{Seed: 7, Domains: 2000, GenericProviders: 20, MisconfiguredShare: 0.003, AnycastRecall: 0.9, InconsistentShare: 0.04}
	studyW := DefaultWorldConfig()
	studyW.Seed, studyW.Domains, studyW.GenericProviders = 11, 12000, 60
	return []namedWorld{{"default", def}, {"serve", serve}, {"study", studyW}}
}

// dumpWorld writes everything GenerateWorld returns in one canonical
// text form: maps in sorted key order, floats in their shortest exact
// form, and the census and routing table read at every nameserver address.
func dumpWorld(out io.Writer, w *World) {
	db := w.DB
	for _, p := range db.Providers {
		fmt.Fprintf(out, "provider %d %q %q %v %v %v\n", p.ID, p.Name, p.Country, p.ASNs, p.Deployment, p.ScrubbingSince.UnixNano())
	}
	for _, ns := range db.Nameservers {
		fmt.Fprintf(out, "ns %d %q %v %d %v %d %v %d\n", ns.ID, ns.Host, ns.Addr, ns.Provider, ns.Anycast, ns.Sites, ns.CapacityPPS, ns.BaseRTT)
	}
	for _, d := range db.Domains {
		fmt.Fprintf(out, "domain %d %q %v %v %v\n", d.ID, d.Name, d.NS, db.ParentNS(d.ID), d.ThirdPartyWeb)
	}
	for _, g := range w.Groups {
		fmt.Fprintf(out, "group %d %v\n", g.Provider, g.NS)
	}
	names := make([]string, 0, len(w.Named))
	for name := range w.Named {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		fmt.Fprintf(out, "named %q %d\n", name, w.Named[name])
	}
	addrs := make([]netx.Addr, 0, len(w.AttackWeights))
	for a := range w.AttackWeights {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		fmt.Fprintf(out, "weight %v %v\n", a, w.AttackWeights[a])
	}
	for _, s := range w.Census.Snapshots() {
		fmt.Fprintf(out, "census %v %d", s.Taken.UnixNano(), s.Len())
		for _, ns := range db.Nameservers {
			fmt.Fprintf(out, " %v", s.IsAnycast(ns.Addr))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "topo %d other %v\n", w.Topo.Len(), w.OtherSpace)
	for _, ns := range db.Nameservers {
		asn, ok := w.Topo.Lookup(ns.Addr)
		fmt.Fprintf(out, "origin %v %d %v %q\n", ns.Addr, asn, ok, w.Topo.OrgName(asn))
	}
}

// TestGenerateWorldMatchesDigest holds GenerateWorld to the worlds it
// built before world generation and zone load became one step per name:
// the SHA-256 of each world's canonical dump is pinned, so a moved rng
// draw, a renamed host or a re-ordered domain fails here even when two
// runs of the same code agree with each other (TestWorldDeterministic).
func TestGenerateWorldMatchesDigest(t *testing.T) {
	want := map[string]string{
		"default": "ee98d7f95b91f89a809b12ecece5c7eb814ec8bc8367144c3ca4e781251f4450",
		"serve":   "89e32b017e2d83c0bc29a8d5006b1203c670bc8e0bf3f9789a98dbe5645e7c66",
		"study":   "1b659b8077263cfb78d7b06d7653ddfb53739cd41f29b7b0eab14587ad4af22e",
	}
	for _, c := range worldConfigs() {
		h := sha256.New()
		dumpWorld(h, GenerateWorld(c.cfg))
		if got := hex.EncodeToString(h.Sum(nil)); got != want[c.name] {
			t.Errorf("%s world digest = %s, want %s", c.name, got, want[c.name])
		}
	}
}

// BenchmarkGenerateWorld builds the serve_clean and study_batch worlds
// (make bench-serve, make bench-session): what every cmd/serve boot,
// serve_clean set-up and study pays before anything else.
func BenchmarkGenerateWorld(b *testing.B) {
	for _, c := range worldConfigs()[1:] {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if w := GenerateWorld(c.cfg); len(w.DB.Domains) != c.cfg.Domains {
					b.Fatalf("%d domains, want %d", len(w.DB.Domains), c.cfg.Domains)
				}
			}
		})
	}
}
