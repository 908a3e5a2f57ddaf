// report.go is what a run hands back: one ModeResult per mode and the
// summary table cmd/bench prints.
package e2ebench

import (
	"fmt"
	"strings"
	"time"

	"dnsddos/internal/obs"
)

// ModeResult aggregates one mode over its measured rounds. FailurePct
// counts everything the paper counts as a failing resolution: queries
// that never got an answer plus SERVFAIL answers (§6.3.1's two
// classes), as a percentage of queries issued. Metrics is the merged
// client + fleet registry at mode end — the shed, RRL, retry and
// breaker counters that say why the row reads as it does.
type ModeResult struct {
	Sent       int64
	Received   int64
	Timeouts   int64
	ServFails  int64
	FailurePct float64
	QPS        float64
	P50NS      int64
	P99NS      int64
	Metrics    obs.Snapshot
}

// Report is the whole run: the per-mode results keyed by mode name.
type Report struct {
	Modes map[string]ModeResult
}

// SummaryTable renders the dnsperfbench-style human summary: one row
// per mode in registry order, quantiles and failure split side by side.
func (r *Report) SummaryTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %8s %7s %9s %9s %9s %9s %9s\n",
		"mode", "sent", "answered", "fail%", "servfail", "timeout", "p50", "p99", "req/s")
	for _, name := range ModeNames() {
		m, ok := r.Modes[name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-18s %8d %8d %6.2f%% %9d %9d %9s %9s %9.0f\n",
			name, m.Sent, m.Received, m.FailurePct, m.ServFails, m.Timeouts,
			time.Duration(m.P50NS).Round(time.Microsecond),
			time.Duration(m.P99NS).Round(time.Microsecond),
			m.QPS)
	}
	return b.String()
}
