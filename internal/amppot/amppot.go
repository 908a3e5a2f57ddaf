// Package amppot models an AmpPot-style honeypot fleet (Krämer et al.,
// cited in §7): fake amplifiers that attackers discover by scanning and
// then abuse as reflectors, letting a third party observe reflection
// attacks — the attack class the network telescope cannot see (§2.1, §4.3).
//
// Jonker et al. (cited in §4.3) compared the two data sources and found
// ≈60% of attacks randomly spoofed (RSDoS feed) and ≈40% reflected
// (AmpPot). The combined-feed analysis in the benchmark suite reproduces
// that split and shows how multi-vector attacks appear in both feeds,
// explaining part of the telescope's intensity blind spot (§6.4).
package amppot

import (
	"math/rand/v2"
	"sort"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/stats"
)

// Config sizes the honeypot fleet and its inference thresholds.
type Config struct {
	// Honeypots is the number of deployed fake amplifiers.
	Honeypots int
	// ReflectorPool is the number of genuine open reflectors attackers
	// can choose from; the fleet's visibility is Honeypots/ReflectorPool
	// per reflector slot an attacker fills.
	ReflectorPool int
	// ReflectorsPerAttack is how many reflectors a typical attack
	// abuses.
	ReflectorsPerAttack int
	// MinRequests is the per-window request threshold for a victim to
	// count as under attack (noise filtering, as with the telescope).
	MinRequests int64
	// MaxGapWindows merges windows into one attack, as in the RSDoS
	// inference.
	MaxGapWindows int
}

// DefaultConfig mirrors the published AmpPot deployment scale: tens of
// honeypots in a population of roughly a million abusable reflectors, with
// each attack cycling thousands of them.
func DefaultConfig() Config {
	return Config{
		Honeypots:           48,
		ReflectorPool:       250_000,
		ReflectorsPerAttack: 5000,
		MinRequests:         5,
		MaxGapWindows:       2,
	}
}

// Attack is one inferred reflection attack.
type Attack struct {
	ID          int
	Victim      netx.Addr
	StartWindow clock.Window
	EndWindow   clock.Window
	// Requests is the total spoofed-victim requests the fleet received.
	Requests int64
	// Honeypots is how many distinct honeypots the attack reached.
	Honeypots int
	// Port is the abused service port (the amplification protocol).
	Port uint16
}

// Start returns the attack start time.
func (a *Attack) Start() time.Time { return a.StartWindow.Start() }

// End returns the exclusive attack end time.
func (a *Attack) End() time.Time { return a.EndWindow.End() }

// Duration returns the inferred duration.
func (a *Attack) Duration() time.Duration { return a.End().Sub(a.Start()) }

// Fleet is the honeypot deployment.
type Fleet struct {
	cfg Config
}

// NewFleet builds a fleet.
func NewFleet(cfg Config) *Fleet {
	if cfg.Honeypots <= 0 || cfg.ReflectorPool <= 0 {
		panic("amppot: fleet needs honeypots and a reflector pool")
	}
	return &Fleet{cfg: cfg}
}

// windowObs is one (victim, window) observation at the fleet.
type windowObs struct {
	window    clock.Window
	victim    netx.Addr
	requests  int64
	honeypots int
	port      uint16
}

// Observe runs the fleet against a schedule: every reflection component
// whose reflector selection includes honeypots produces observations. The
// victim's identity is read from the spoofed source of the reflected
// requests, as the real AmpPot does.
func (f *Fleet) Observe(rng *rand.Rand, sched *attacksim.Schedule) []Attack {
	// probability that a given honeypot is among an attack's reflectors
	perPot := float64(f.cfg.ReflectorsPerAttack) / float64(f.cfg.ReflectorPool)
	var obs []windowObs
	specs := sched.Specs()
	for i := range specs {
		s := &specs[i]
		if s.Vector != attacksim.VectorReflection {
			continue
		}
		pots := int(stats.Binomial(rng, int64(f.cfg.Honeypots), perPot))
		if pots == 0 {
			continue
		}
		// the abused reflectors split the attack's request stream
		// roughly evenly; each selected honeypot sees its share
		shareRate := s.PPS / float64(f.cfg.ReflectorsPerAttack) * float64(pots)
		port := uint16(53)
		if ports := sched.Ports(s); len(ports) > 0 {
			port = ports[0]
		}
		startW := clock.WindowOfUnixNano(s.Start)
		endW := clock.WindowOfUnixNano(s.End - 1)
		for w := startW; w <= endW; w++ {
			frac, ok := s.ActiveIn(w)
			if !ok {
				continue
			}
			lambda := shareRate * frac * clock.WindowDur.Seconds()
			n := stats.Poisson(rng, lambda)
			if n > 0 {
				obs = append(obs, windowObs{window: w, victim: s.Target, requests: n, honeypots: pots, port: port})
			}
		}
	}
	return f.infer(obs)
}

// infer merges window observations into attacks, mirroring the RSDoS
// curation structure.
func (f *Fleet) infer(obs []windowObs) []Attack {
	byVictim := make(map[netx.Addr][]windowObs)
	for _, o := range obs {
		if o.requests >= f.cfg.MinRequests {
			byVictim[o.victim] = append(byVictim[o.victim], o)
		}
	}
	victims := make([]netx.Addr, 0, len(byVictim))
	for v := range byVictim {
		victims = append(victims, v)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })
	var attacks []Attack
	for _, v := range victims {
		wins := byVictim[v]
		sort.Slice(wins, func(i, j int) bool { return wins[i].window < wins[j].window })
		var cur *Attack
		flush := func() {
			if cur != nil {
				attacks = append(attacks, *cur)
				cur = nil
			}
		}
		for _, o := range wins {
			if cur != nil && int64(o.window-cur.EndWindow) > int64(f.cfg.MaxGapWindows)+1 {
				flush()
			}
			if cur == nil {
				cur = &Attack{Victim: v, StartWindow: o.window, EndWindow: o.window, Port: o.port}
			}
			cur.EndWindow = o.window
			cur.Requests += o.requests
			if o.honeypots > cur.Honeypots {
				cur.Honeypots = o.honeypots
			}
		}
		flush()
	}
	sort.Slice(attacks, func(i, j int) bool {
		if attacks[i].StartWindow != attacks[j].StartWindow {
			return attacks[i].StartWindow < attacks[j].StartWindow
		}
		return attacks[i].Victim < attacks[j].Victim
	})
	for i := range attacks {
		attacks[i].ID = i + 1
	}
	return attacks
}

// FeedComparison is the Jonker-et-al.-style joint view of the two feeds.
type FeedComparison struct {
	SpoofedOnly   int // seen only by the telescope
	ReflectedOnly int // seen only by the honeypots
	Both          int // multi-vector attacks in both feeds
}

// SpoofedShare returns the telescope-visible share of all observed attacks
// (≈0.6 in Jonker et al.).
func (fc FeedComparison) SpoofedShare() float64 {
	total := fc.SpoofedOnly + fc.ReflectedOnly + fc.Both
	if total == 0 {
		return 0
	}
	return float64(fc.SpoofedOnly+fc.Both) / float64(total)
}

// CompareFeeds joins RSDoS attacks (victim + interval) with AmpPot attacks
// by victim identity and time overlap.
func CompareFeeds(spoofed []SpoofedAttack, reflected []Attack) FeedComparison {
	type iv struct{ from, to time.Time }
	byVictim := make(map[netx.Addr][]iv)
	for _, a := range reflected {
		byVictim[a.Victim] = append(byVictim[a.Victim], iv{a.Start(), a.End()})
	}
	matchedReflected := make(map[netx.Addr][]bool)
	for v, list := range byVictim {
		matchedReflected[v] = make([]bool, len(list))
	}
	var fc FeedComparison
	for _, a := range spoofed {
		matched := false
		for i, r := range byVictim[a.Victim] {
			if a.From.Before(r.to) && a.To.After(r.from) {
				matched = true
				matchedReflected[a.Victim][i] = true
			}
		}
		if matched {
			fc.Both++
		} else {
			fc.SpoofedOnly++
		}
	}
	for v, list := range matchedReflected {
		_ = v
		for _, m := range list {
			if !m {
				fc.ReflectedOnly++
			}
		}
	}
	return fc
}

// SpoofedAttack is the minimal view of an RSDoS feed entry CompareFeeds
// needs (victim and interval), keeping this package independent of the
// telescope-side record schema.
type SpoofedAttack struct {
	Victim   netx.Addr
	From, To time.Time
}
