package nsset_test

import (
	"fmt"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// ExampleAggregator_AppendWindows shows the paper's Eq. 1 from the two
// reads the join makes of a day store: a day of ~10 ms baseline
// measurements followed by a 5-minute window at ~100 ms yields a 10×
// impact.
//
//	Impact_on_RTT = AvgRTT(5 min window) / AvgRTT(day before)
func ExampleAggregator_AppendWindows() {
	key := nsset.KeyOf([]netx.Addr{
		netx.MustParseAddr("192.0.2.1"),
		netx.MustParseAddr("192.0.2.2"),
	})
	agg := nsset.NewAggregator()

	baselineDay := clock.Day(10)
	for hour := 0; hour < 24; hour++ {
		agg.Add(key, baselineDay.Start().Add(time.Duration(hour)*time.Hour),
			nsset.StatusOK, 10*time.Millisecond)
	}
	attack := baselineDay.End().Add(14 * time.Hour)
	agg.Add(key, attack, nsset.StatusOK, 100*time.Millisecond)
	agg.Add(key, attack.Add(time.Minute), nsset.StatusOK, 100*time.Millisecond)

	w := clock.WindowOf(attack)
	windows := agg.AppendWindows(nil, key, w, w)
	base, ok := agg.Baseline(key, w.Day().Prev())
	ok = ok && len(windows) == 1 && windows[0].OKCount > 0 && base.OKCount > 0
	impact := 0.0
	if ok {
		impact = float64(windows[0].AvgRTT()) / float64(base.AvgRTT())
	}
	fmt.Printf("impact defined: %v, Impact_on_RTT = %.0fx\n", ok, impact)
	// Output:
	// impact defined: true, Impact_on_RTT = 10x
}

// ExampleKeyOf shows that NSSet identity ignores order and duplicates.
func ExampleKeyOf() {
	a := nsset.KeyOf([]netx.Addr{
		netx.MustParseAddr("192.0.2.2"),
		netx.MustParseAddr("192.0.2.1"),
		netx.MustParseAddr("192.0.2.1"),
	})
	b := nsset.KeyOf([]netx.Addr{
		netx.MustParseAddr("192.0.2.1"),
		netx.MustParseAddr("192.0.2.2"),
	})
	fmt.Println(a == b, a)
	// Output:
	// true {192.0.2.1, 192.0.2.2}
}
