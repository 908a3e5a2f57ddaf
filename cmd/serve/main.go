// Command serve runs the authoritative DNS server on a real address,
// serving either a generated synthetic world or a zone file — handy as a
// local test target for dig/drill/resolvers and for demos of the live
// measurement path.
//
// Usage:
//
//	serve [-addr 127.0.0.1:5353] [-zonefile FILE | -domains N] [-delay DUR]
//	      [-workers N] [-readers N] [-maxconns N]
//	      [-overload drop|servfail|tc] [-rrl-rps N] [-rrl-slip N]
//	      [-fault-drop P] [-fault-latency DUR] [-fault-jitter DUR]
//	      [-fault-dup P] [-fault-corrupt P] [-fault-start DUR -fault-window DUR]
//	      [-metrics-addr :9090]
//
// -metrics-addr exposes the server's live counters and latency
// histograms as /metrics.json and net/http/pprof under /debug/pprof/
// (runtime MemStats at /debug/pprof/heap?debug=1) — watch shed/RRL
// verdicts and per-query latency quantiles mid-flood with:
//
//	curl -s http://127.0.0.1:9090/metrics.json
//
// The -fault-* flags emulate a DDoS attack window netem-style on the
// server's own UDP listener; with -fault-start/-fault-window two timers
// switch them on and back off (healthy → attack → recovered), otherwise
// they hold for the whole run. -rrl-* and -overload select the graceful-
// degradation behaviour under flood.
//
// Query it with e.g.:
//
//	dig @127.0.0.1 -p 5353 mil.ru NS
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/obs"
	"dnsddos/internal/scenario"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:5353", "UDP+TCP listen address")
	zonePath := flag.String("zonefile", "", "serve this RFC 1035 master file instead of a generated world")
	domains := flag.Int("domains", 2000, "generated world size (ignored with -zonefile)")
	delay := flag.Duration("delay", 0, "artificial per-answer delay (to exercise client timeouts)")
	workers := flag.Int("workers", 0, "UDP worker pool size (0 = 2×GOMAXPROCS, min 8)")
	readers := flag.Int("readers", 0, "UDP reader goroutines sharing the socket (0 = 2)")
	maxconns := flag.Int("maxconns", 0, "concurrent TCP connection cap (0 = 256)")
	export := flag.String("export", "", "also write the served zone as a master file")
	overload := flag.String("overload", "drop", "overload policy for shed queries: drop, servfail, or tc")
	rrlRPS := flag.Float64("rrl-rps", 0, "RRL responses/s per source /24 (0 disables)")
	rrlSlip := flag.Int("rrl-slip", 2, "send every Nth rate-limited response as TC (0 never slips)")
	fDrop := flag.Float64("fault-drop", 0, "listener fault: datagram drop probability [0,1]")
	fLatency := flag.Duration("fault-latency", 0, "listener fault: added latency")
	fJitter := flag.Duration("fault-jitter", 0, "listener fault: latency jitter (± uniform)")
	fDup := flag.Float64("fault-dup", 0, "listener fault: duplication probability")
	fCorrupt := flag.Float64("fault-corrupt", 0, "listener fault: bit-corruption probability")
	fStart := flag.Duration("fault-start", 0, "with -fault-window: engage faults this long after start")
	fWindow := flag.Duration("fault-window", 0, "fault window length (0 = faults hold indefinitely)")
	fSeed := flag.Uint64("fault-seed", 1, "fault-injection RNG seed")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics.json and /debug/pprof/ on this address (empty disables)")
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	policy, err := authserver.ParseOverloadPolicy(*overload)
	if err != nil {
		logger.Error("bad -overload", "err", err)
		os.Exit(1)
	}

	var zone *authserver.Zone
	if *zonePath != "" {
		f, err := os.Open(*zonePath)
		if err != nil {
			logger.Error("opening zone file", "err", err)
			os.Exit(1)
		}
		zone, err = authserver.ReadZoneFile(f)
		f.Close()
		if err != nil {
			logger.Error("parsing zone file", "err", err)
			os.Exit(1)
		}
		logger.Info("loaded zone file", "path", *zonePath, "delegations", zone.NumDelegations())
	} else {
		cfg := scenario.DefaultWorldConfig()
		cfg.Domains = *domains
		cfg.GenericProviders = 40
		world := scenario.GenerateWorld(cfg)
		zone = authserver.FromDB(world.DB)
		logger.Info("generated world", "domains", len(world.DB.Domains), "nameservers", len(world.DB.Nameservers))
	}

	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			logger.Error("creating export file", "err", err)
			os.Exit(1)
		}
		if err := authserver.WriteZoneFile(f, zone); err != nil {
			logger.Error("writing zone file", "err", err)
			os.Exit(1)
		}
		f.Close()
		logger.Info("exported zone", "path", *export)
	}

	srv := authserver.NewServer(zone, logger)
	srv.SetDelay(*delay)
	srv.Workers = *workers
	srv.Readers = *readers
	srv.MaxConns = *maxconns
	srv.Overload = policy
	if *rrlRPS > 0 {
		srv.RRL = &authserver.RRLConfig{ResponsesPerSecond: *rrlRPS, Slip: *rrlSlip}
	}

	attack := faultinject.Profile{
		Drop:      *fDrop,
		Latency:   *fLatency,
		Jitter:    *fJitter,
		Duplicate: *fDup,
		Corrupt:   *fCorrupt,
	}
	if attack.Active() {
		inj := faultinject.New(*fSeed)
		armFaults(inj, attack, *fStart, *fWindow, time.AfterFunc)
		if *fWindow > 0 {
			logger.Info("fault window scheduled",
				"start", *fStart, "end", *fStart+*fWindow, "profile", fmt.Sprintf("%+v", attack))
		} else {
			logger.Info("faults engaged for the whole run", "profile", fmt.Sprintf("%+v", attack))
		}
		srv.WrapUDP = func(pc authserver.UDPConn) authserver.UDPConn {
			return faultinject.WrapPacketConn(pc, inj)
		}
	}

	bound, err := srv.Start(*addr)
	if err != nil {
		logger.Error("starting server", "err", err)
		os.Exit(1)
	}
	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, srv.Metrics())
		if err != nil {
			logger.Error("starting metrics endpoint", "err", err)
			os.Exit(1)
		}
		defer ms.Close()
		fmt.Printf("observability on http://%s/metrics.json (also /debug/pprof/)\n", ms.Addr())
	}
	fmt.Printf("authoritative DNS serving on %s (UDP+TCP)\ntry: dig @%s -p %s mil.ru NS\n",
		bound, hostOf(bound), portOf(bound))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	c := srv.Metrics().Snapshot().Counters
	logger.Info("shutting down",
		"udp_answered", c["authserver.udp_answered"], "udp_dropped", c["authserver.udp_dropped"],
		"shed_servfail", c["authserver.udp_shed_servfail"], "shed_tc", c["authserver.udp_shed_truncated"],
		"rrl_dropped", c["authserver.rrl_dropped"], "rrl_slipped", c["authserver.rrl_slipped"],
		"tcp_queries", c["authserver.tcp_queries"], "tcp_rejected", c["authserver.tcp_rejected"])
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		logger.Warn("close timed out")
	}
}

// armFaults installs attack on inj: for the whole run when window is 0,
// otherwise from start until start+window, each edge switched by a timer
// from after (time.AfterFunc in main). The end timer is armed inside the
// start timer's callback, so the two edges cannot run out of order.
func armFaults(inj *faultinject.Injector, attack faultinject.Profile, start, window time.Duration, after func(time.Duration, func()) *time.Timer) {
	if window <= 0 {
		inj.SetProfile(attack)
		return
	}
	after(start, func() {
		inj.SetProfile(attack)
		after(window, func() { inj.SetProfile(faultinject.Profile{}) })
	})
}

// hostOf splits the host out of "host:port", handling IPv6 literals like
// "[::1]:5353" (the returned host carries no brackets, as dig expects).
func hostOf(addr string) string {
	h, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return h
}

// portOf splits the port out of "host:port", handling IPv6 literals.
func portOf(addr string) string {
	_, p, err := net.SplitHostPort(addr)
	if err != nil {
		return ""
	}
	return p
}
