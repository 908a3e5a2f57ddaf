package reactive

import (
	"math/rand/v2"
	"sort"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/resolver"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/simnet"
)

// multivantage.go extends the reactive platform with the §4.3.1/§9 plan the
// paper describes as in progress: probing from several vantage points to
// see through anycast catchment. The per-vantage probing budget still obeys
// the §8 ethical rate limit — the MaxDomains cap applies to each vantage's
// probe stream independently, exactly as independently operated probes
// would.

// VantagePlatform runs one reactive campaign per vantage point.
type VantagePlatform struct {
	cfg      Config
	db       *dnsdb.DB
	resCfg   resolver.Config
	net      *simnet.Net
	vantages []simnet.Vantage
	rng      *rand.Rand
}

// NewVantagePlatform builds a multi-vantage platform over the data plane.
func NewVantagePlatform(cfg Config, db *dnsdb.DB, net *simnet.Net, resCfg resolver.Config, vantages []simnet.Vantage, rng *rand.Rand) *VantagePlatform {
	if len(vantages) == 0 {
		vantages = []simnet.Vantage{simnet.DefaultVantage()}
	}
	return &VantagePlatform{cfg: cfg, db: db, resCfg: resCfg, net: net, vantages: vantages, rng: rng}
}

// VantageCampaign is one vantage's view of an attack.
type VantageCampaign struct {
	Vantage  simnet.Vantage
	Campaign *Campaign
}

// React runs the campaign from every vantage.
func (vp *VantagePlatform) React(a rsdos.Attack) []VantageCampaign {
	out := make([]VantageCampaign, 0, len(vp.vantages))
	for _, v := range vp.vantages {
		res := resolver.New(vp.resCfg, vp.db, vp.net.WithVantage(v))
		p := NewPlatform(vp.cfg, vp.db, res, vp.rng)
		out = append(out, VantageCampaign{Vantage: v, Campaign: p.React(a)})
	}
	return out
}

// VantageDisagreement summarizes how differently the vantages saw one
// window: the spread between the best and worst per-vantage availability.
type VantageDisagreement struct {
	Window clock.Window
	Min    float64
	Max    float64
}

// Disagreements returns, per probed window, the availability spread across
// vantages — nonzero spread is catchment masking made visible.
func Disagreements(campaigns []VantageCampaign) []VantageDisagreement {
	per := map[clock.Window][]float64{}
	for _, vc := range campaigns {
		for _, wa := range vc.Campaign.Availability() {
			per[wa.Window] = append(per[wa.Window], wa.Rate())
		}
	}
	out := make([]VantageDisagreement, 0, len(per))
	for w, rates := range per {
		d := VantageDisagreement{Window: w, Min: rates[0], Max: rates[0]}
		for _, r := range rates {
			if r < d.Min {
				d.Min = r
			}
			if r > d.Max {
				d.Max = r
			}
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Window < out[j].Window })
	return out
}

// StandardVantages returns a plausible probe deployment: the original NL
// vantage plus US east/west and an APAC site.
func StandardVantages() []simnet.Vantage {
	return []simnet.Vantage{
		simnet.DefaultVantage(),
		{Name: "us-east", RTTScale: 6.5, CatchmentSeed: 101},
		{Name: "us-west", RTTScale: 9.5, CatchmentSeed: 102},
		{Name: "ap-southeast", RTTScale: 14, CatchmentSeed: 103},
	}
}
