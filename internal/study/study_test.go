package study

import (
	"testing"

	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
)

// TestQuickStudySmoke runs the scaled-down end-to-end study and checks the
// headline shape results of the paper hold:
//   - DNS attacks are a small share (≈0.5–4%) of all inferred attacks;
//   - the vast majority of joined events show no resolution failures;
//   - high (≥10×) RTT impacts exist but are a small share of events;
//   - no full-anycast NSSet shows a ≥100× impact.
func TestQuickStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("quick study still sweeps 17 months; skip in -short")
	}
	s := mustRun(t, QuickConfig())

	if len(s.Attacks) == 0 {
		t.Fatal("no attacks inferred from telescope observations")
	}
	var dns int
	for _, ca := range s.Classified {
		if ca.DNSInfra() {
			dns++
		}
	}
	share := float64(dns) / float64(len(s.Attacks))
	if share < 0.003 || share > 0.06 {
		t.Errorf("DNS attack share = %.4f (%d/%d), want within [0.003, 0.06]", share, dns, len(s.Attacks))
	}

	if len(s.Events) == 0 {
		t.Fatal("join produced no events")
	}
	var failing, impacted10, impacted100, anycast100 int
	for _, e := range s.Events {
		if e.Timeouts+e.ServFails > 0 {
			failing++
		}
		if e.HasImpact && e.Impact >= 10 {
			impacted10++
		}
		if e.HasImpact && e.Impact >= 100 {
			impacted100++
			if e.AnycastClass == nsset.FullAnycast {
				anycast100++
			}
		}
	}
	t.Logf("attacks=%d dnsShare=%.3f events=%d failing=%d ≥10x=%d ≥100x=%d",
		len(s.Attacks), share, len(s.Events), failing, impacted10, impacted100)

	if failRate := float64(failing) / float64(len(s.Events)); failRate > 0.2 {
		t.Errorf("%.1f%% of events have failures; paper shape is ~1%%", failRate*100)
	}
	if impacted10 == 0 {
		t.Error("no events with ≥10x RTT impact; paper sees ~5%")
	}
	if anycast100 != 0 {
		t.Errorf("%d full-anycast events with ≥100x impact; paper sees none", anycast100)
	}

	fb := core.BreakdownFailures(s.Events)
	t.Logf("failure breakdown: %+v", fb)
}
