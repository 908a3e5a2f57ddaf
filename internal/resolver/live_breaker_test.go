package resolver

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/obs"
)

// TestLiveResolverBreakerStates walks one server's circuit through its
// states on synthetic times: three failures open it, it refuses inside
// the cooldown, admits exactly one probe after it, re-opens on a failed
// probe and closes on a successful one. Servers are isolated from each
// other, a success resets the streak, each entry into open counts one
// breaker_opens, and a zero threshold keeps no circuit at all.
func TestLiveResolverBreakerStates(t *testing.T) {
	reg := obs.New()
	r := NewLiveResolver(LiveConfig{
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
		Metrics:          reg,
	}, rand.New(rand.NewPCG(1, 1)))
	state := func(addr string) circuitState {
		if c := r.servers[addr]; c != nil {
			return c.state
		}
		return circuitClosed
	}
	t0 := time.Unix(0, 0)

	for i := 0; i < 3; i++ {
		if !r.allow("ns1", t0) {
			t.Fatalf("try %d refused while closed", i)
		}
		r.record("ns1", false, t0)
	}
	if state("ns1") != circuitOpen {
		t.Fatalf("after 3 failures the circuit is %d, want open", state("ns1"))
	}
	if r.allow("ns1", t0.Add(500*time.Millisecond)) {
		t.Fatal("an open circuit admitted a try inside its cooldown")
	}
	if !r.allow("ns2", t0) {
		t.Fatal("another server's circuit refused: circuits must be per server")
	}

	probe := t0.Add(time.Second)
	if !r.allow("ns1", probe) {
		t.Fatal("the cooldown passed but no probe was admitted")
	}
	if state("ns1") != circuitHalfOpen {
		t.Fatalf("the probing circuit is %d, want half-open", state("ns1"))
	}
	if r.allow("ns1", probe) {
		t.Fatal("a second concurrent probe was admitted")
	}
	r.record("ns1", false, probe)
	if state("ns1") != circuitOpen {
		t.Fatalf("after a failed probe the circuit is %d, want open", state("ns1"))
	}
	if r.allow("ns1", probe.Add(500*time.Millisecond)) {
		t.Fatal("a failed probe did not restart the cooldown")
	}
	reprobe := probe.Add(time.Second)
	if !r.allow("ns1", reprobe) {
		t.Fatal("no probe after the second cooldown")
	}
	r.record("ns1", true, reprobe)
	if state("ns1") != circuitClosed || !r.allow("ns1", reprobe) {
		t.Fatal("a successful probe must close the circuit")
	}

	// a success resets the streak: fail, fail, succeed, fail, fail
	// never reaches three
	for _, ok := range []bool{false, false, true, false, false} {
		r.record("ns2", ok, t0)
	}
	if state("ns2") != circuitClosed {
		t.Fatal("a success in between must reset the failure streak")
	}
	if got := reg.Snapshot().Counters["resolver.live.breaker_opens"]; got != 2 {
		t.Errorf("breaker_opens = %d, want 2 (closed→open, half-open→open)", got)
	}

	off := NewLiveResolver(LiveConfig{}, rand.New(rand.NewPCG(1, 1)))
	for i := 0; i < 10; i++ {
		off.record("ns1", false, t0)
	}
	if len(off.servers) != 0 || off.pickServer([]string{"ns1"}, 0) != "ns1" {
		t.Fatal("a zero BreakerThreshold must keep no circuit")
	}
}
