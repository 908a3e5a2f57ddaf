// live.go is the real-socket driver: per mode it boots a loopback
// authoritative fleet shaped by the modeSpec, interposes a fault
// injector on every listener, and runs warm-up plus measured rounds of
// internal/dnsload traffic through a retrying resolver.LiveResolver
// that rotates over the whole fleet. Everything observable — server
// counters, resolver retry/breaker outcomes, client-side RTTs — lands
// in obs registries whose merged snapshot rides on the ModeResult, so
// the counters that explain a row sit next to the quantiles.
package e2ebench

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnsload"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
)

// timeoutError is the net.Error the fleet client surfaces when a full
// resolution exhausts its tries without any server answering — it
// classifies as a timeout in dnsload's failure accounting, as an
// expired read deadline from a single-try UDPClient does.
type timeoutError struct{}

func (timeoutError) Error() string   { return "e2ebench: resolution timed out" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

var _ net.Error = timeoutError{}

// fleetClient adapts a LiveResolver resolving over the whole fleet to
// the single-address resolver.Client interface dnsload drives. The
// addr dnsload passes is ignored: rotation, retry, and breaker-based
// server skipping happen inside Resolve across every fleet member.
type fleetClient struct {
	lr    *resolver.LiveResolver
	addrs []string
}

func (f *fleetClient) Query(ctx context.Context, _, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	start := time.Now()
	o := f.lr.Resolve(ctx, f.addrs, name, qtype)
	switch o.Status {
	case nsset.StatusOK:
		return o.Msg, o.RTT, nil
	case nsset.StatusServFail:
		// a SERVFAIL outcome is an answer, not loss: hand dnsload a
		// minimal SERVFAIL response with the time the resolution burned,
		// so it lands in RCodes and the latency distribution the way a
		// SERVFAIL datagram through a single-try UDPClient would.
		return &dnswire.Message{Header: dnswire.Header{
			Response: true, RCode: dnswire.RCodeServFail,
		}}, time.Since(start), nil
	default:
		return nil, 0, timeoutError{}
	}
}

// modeSeed derives a per-mode PCG seed stream from the run seed, so
// adding a mode never perturbs another mode's rotation order.
func modeSeed(seed uint64, mode string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(mode))
	return seed ^ h.Sum64()
}

// runModeLive runs one mode's rounds over real sockets.
func runModeLive(ctx context.Context, cfg Config, spec modeSpec, names []string, zone *authserver.Zone) (ModeResult, error) {
	servers := make([]*authserver.Server, 0, cfg.Servers)
	injectors := make([]*faultinject.Injector, 0, cfg.Servers)
	addrs := make([]string, 0, cfg.Servers)
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 0; i < cfg.Servers; i++ {
		srv := authserver.NewServer(zone, nil)
		inj := faultinject.New(modeSeed(cfg.Seed, spec.name) + uint64(i))
		srv.WrapUDP = func(pc authserver.UDPConn) authserver.UDPConn {
			return faultinject.WrapPacketConn(pc, inj)
		}
		if spec.forceOverload {
			// one worker, one queue slot, and a per-answer delay. The
			// senders are closed-loop: at most Concurrency queries are in
			// flight fleet-wide, about Concurrency/Servers at one server,
			// so the shed path — the overload policy under test — engages
			// only when worker plus queue hold fewer than that. The two
			// slots here sit under the 8/3 of Default() and of the test
			// config; a queue of Concurrency or more can never overflow.
			srv.Workers = 1
			srv.Readers = 1
			srv.QueueDepth = 1
			srv.Overload = spec.overload
			srv.SetDelay(300 * time.Microsecond)
		}
		if spec.rrl != nil {
			rrl := *spec.rrl
			srv.RRL = &rrl
		}
		if spec.blackhole && i == 0 {
			inj.SetProfile(faultinject.Profile{Drop: 1.0})
		}
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return ModeResult{}, fmt.Errorf("starting fleet server %d: %w", i, err)
		}
		servers = append(servers, srv)
		injectors = append(injectors, inj)
		addrs = append(addrs, addr)
	}

	reg := obs.New()
	seed := modeSeed(cfg.Seed, spec.name)
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout:    cfg.PerTryTimeout,
		MaxTries:         3,
		Backoff:          2 * time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		TCPFallback:      true,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
		Metrics:          reg,
	}, rand.New(rand.NewPCG(seed, seed<<1|1)))
	client := &fleetClient{lr: lr, addrs: addrs}

	runRound := func(attack bool) (*dnsload.Result, error) {
		for i, inj := range injectors {
			if spec.blackhole && i == 0 {
				continue // stays dead for the whole mode
			}
			if attack && spec.attack != nil {
				inj.SetProfile(*spec.attack)
			} else {
				inj.SetProfile(faultinject.Profile{})
			}
		}
		return dnsload.Run(ctx, dnsload.Config{
			Addr:        addrs[0],
			Names:       names,
			Client:      client,
			Concurrency: cfg.Concurrency,
			Queries:     cfg.Queries,
			Timeout:     cfg.Timeout,
			Metrics:     reg,
		})
	}

	for w := 0; w < cfg.Warmup; w++ {
		if _, err := runRound(false); err != nil {
			return ModeResult{}, fmt.Errorf("warmup round %d: %w", w, err)
		}
	}
	rounds := make([]*dnsload.Result, 0, cfg.Rounds)
	for r := 0; r < cfg.Rounds; r++ {
		res, err := runRound(attackRound(r, cfg.Rounds))
		if err != nil {
			return ModeResult{}, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, res)
	}
	// the snapshot is the /metrics.json view at mode end: client-side
	// load and resolver metrics merged with every fleet server's
	// registry. Counters are cumulative over the mode (warm-up
	// included), as a live scrape of the endpoints would be.
	combined := obs.New()
	combined.Merge(reg)
	for _, s := range servers {
		combined.Merge(s.Metrics())
	}
	return buildModeResult(rounds, combined.Snapshot()), nil
}
