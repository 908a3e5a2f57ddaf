package simnet_test

import (
	"fmt"
	"math/rand/v2"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/packet"
	"dnsddos/internal/simnet"
)

// Example builds a one-nameserver world, floods it at three times its
// capacity, and shows how the data plane turns the attack into degraded
// query outcomes.
func Example() {
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "SmallHost"})
	id, err := db.AddNameserver(dnsdb.Nameserver{
		Addr:        netx.MustParseAddr("192.0.2.53"),
		Provider:    pid,
		CapacityPPS: 1e5,
		BaseRTT:     10 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	db.Freeze()

	start := clock.StudyStart.Add(24 * time.Hour)
	var attacks attacksim.Builder
	attacks.Add(attacksim.Spec{
		Target: netx.MustParseAddr("192.0.2.53"),
		Vector: attacksim.VectorRandomSpoofed,
		Proto:  packet.ProtoTCP,
		Start:  start.UnixNano(),
		End:    start.Add(time.Hour).UnixNano(),
		PPS:    3e5, // 3x capacity
	}, 53)
	net := simnet.New(simnet.DefaultParams(), db, attacks.Schedule())

	ls := net.LoadStateAt(id, start.Add(30*time.Minute))
	fmt.Printf("utilization during attack: %.1f\n", ls.Utilization())

	rng := rand.New(rand.NewPCG(1, 1))
	var fails int
	for i := 0; i < 1000; i++ {
		if st, _ := net.Query(rng, id, start.Add(30*time.Minute)); st != nsset.StatusOK {
			fails++
		}
	}
	fmt.Printf("most queries fail under 3x overload: %v\n", fails > 500)
	// before the attack the server is healthy
	st, rtt := net.Query(rng, id, start.Add(-time.Hour))
	fmt.Printf("before the attack: %v at ~%dms\n", st, rtt.Round(10*time.Millisecond)/time.Millisecond)
	// Output:
	// utilization during attack: 3.0
	// most queries fail under 3x overload: true
	// before the attack: OK at ~10ms
}
