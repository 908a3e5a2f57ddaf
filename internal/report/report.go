// Package report renders the analysis results as the tables and series the
// paper presents: ASCII tables for Tables 1–6 and CSV-ish series for the
// figures, printed to any io.Writer. Which analysis and which parameters
// feed which renderer is catalogue.go's Catalogue, the one list cmd/report
// and the root benchmarks range over.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/packet"
	"dnsddos/internal/stats"
)

// Table is a generic ASCII table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(parts, " | "))
	}
	sep := make([]string, len(widths))
	for i, wd := range widths {
		sep[i] = strings.Repeat("-", wd)
	}
	line(t.Headers)
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// Table1 renders the RSDoS dataset summary.
func Table1(w io.Writer, ds core.DatasetSummary) {
	t := Table{
		Title:   "Table 1: RSDoS dataset (study window)",
		Headers: []string{"#Attacks", "#IPs", "#/24 Prefixes", "#ASes"},
		Rows: [][]string{{
			fmt.Sprintf("%d", ds.Attacks),
			fmt.Sprintf("%d", ds.IPs),
			fmt.Sprintf("%d", ds.Slash24s),
			fmt.Sprintf("%d", ds.ASes),
		}},
	}
	t.Fprint(w)
}

// Table2Row is one attack × nameserver cell block of Table 2.
type Table2Row struct {
	Attack      string
	NS          string
	PeakPPM     float64
	InferredPPS float64
	Gbps        float64
	AttackerIPs int64
}

// Table2 renders the TransIP attack metrics.
func Table2(w io.Writer, rows []Table2Row) {
	t := Table{
		Title:   "Table 2: TransIP attack metrics (per targeted nameserver)",
		Headers: []string{"Attack", "NS", "Telescope PPM", "Inferred pps", "Inferred volume", "Attacker IPs"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Attack, r.NS,
			fmt.Sprintf("%.1fK", r.PeakPPM/1000),
			fmt.Sprintf("%.0fK", r.InferredPPS/1000),
			fmtVolume(r.Gbps),
			fmtCount(r.AttackerIPs),
		})
	}
	t.Fprint(w)
}

func fmtVolume(gbps float64) string {
	if gbps >= 1 {
		return fmt.Sprintf("%.1f Gbps", gbps)
	}
	return fmt.Sprintf("%.0f Mbps", gbps*1000)
}

func fmtCount(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// Table3 renders the monthly attack activity summary.
func Table3(w io.Writer, rows []core.MonthRow) {
	t := Table{
		Title:   "Table 3: Monthly attack activity",
		Headers: []string{"Month", "#DNS Attacks", "#Other Attacks", "Total", "DNS IPs", "Other IPs", "Total IPs"},
	}
	var totDNS, totOther, totDNSIPs, totOtherIPs int
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Month.String(),
			fmt.Sprintf("%d (%.2f%%)", r.DNSAttacks, r.DNSShare()*100),
			fmt.Sprintf("%d", r.OtherAttack),
			fmt.Sprintf("%d", r.TotalAttacks()),
			fmt.Sprintf("%d", r.DNSIPs),
			fmt.Sprintf("%d", r.OtherIPs),
			fmt.Sprintf("%d", r.TotalIPs()),
		})
		totDNS += r.DNSAttacks
		totOther += r.OtherAttack
		totDNSIPs += r.DNSIPs
		totOtherIPs += r.OtherIPs
	}
	share := stats.Ratio(float64(totDNS), float64(totDNS+totOther))
	t.Rows = append(t.Rows, []string{
		"Total",
		fmt.Sprintf("%d (%.2f%%)", totDNS, share*100),
		fmt.Sprintf("%d", totOther),
		fmt.Sprintf("%d", totDNS+totOther),
		fmt.Sprintf("%d", totDNSIPs),
		fmt.Sprintf("%d", totOtherIPs),
		fmt.Sprintf("%d", totDNSIPs+totOtherIPs),
	})
	t.Fprint(w)
}

// Table4 renders the top attacked ASNs.
func Table4(w io.Writer, rows []core.RankedASN) {
	t := Table{
		Title:   "Table 4: Top ASNs attacked",
		Headers: []string{"ASN", "#Attacks", "Company"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", uint32(r.ASN)),
			fmt.Sprintf("%d", r.Attacks),
			r.Org,
		})
	}
	t.Fprint(w)
}

// Table5 renders the top attacked IPs.
func Table5(w io.Writer, rows []core.RankedIP) {
	t := Table{
		Title:   "Table 5: Top IPs attacked",
		Headers: []string{"IP", "#Attacks", "Type"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.IP.String(), fmt.Sprintf("%d", r.Attacks), r.Type})
	}
	t.Fprint(w)
}

// Table6 renders the most affected companies by RTT impact.
func Table6(w io.Writer, rows []core.AffectedOrg) {
	t := Table{
		Title:   "Table 6: Most affected companies (worst RTT impact)",
		Headers: []string{"Company", "Impact on RTT"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Org, fmt.Sprintf("%.0fx", r.Impact)})
	}
	t.Fprint(w)
}

// Figure2 renders the TransIP RTT time-series (per attack phase).
func Figure2(w io.Writer, title string, samples []core.RTTSample) {
	fmt.Fprintf(w, "# Figure 2: %s\nwindow_start,avg_rtt_ms,domains\n", title)
	for _, s := range samples {
		fmt.Fprintf(w, "%s,%.2f,%d\n", s.Window.Start().Format(time.RFC3339), float64(s.AvgRTT)/1e6, s.Domains)
	}
}

// Figure3 renders the timeout-fraction series.
func Figure3(w io.Writer, title string, samples []core.RTTSample) {
	fmt.Fprintf(w, "# Figure 3: %s\nwindow_start,timeout_pct,domains\n", title)
	for _, s := range samples {
		pct := 0.0
		if s.Domains > 0 {
			pct = float64(s.Timeouts) / float64(s.Domains) * 100
		}
		fmt.Fprintf(w, "%s,%.1f,%d\n", s.Window.Start().Format(time.RFC3339), pct, s.Domains)
	}
}

// Figure5 renders monthly potentially-affected domain counts.
func Figure5(w io.Writer, counts map[clock.Month]int) {
	fmt.Fprintf(w, "# Figure 5: Registered domains potentially affected, by month\nmonth,domains\n")
	months := make([]clock.Month, 0, len(counts))
	for m := range counts {
		months = append(months, m)
	}
	sort.Slice(months, func(i, j int) bool { return months[i].Before(months[j]) })
	for _, m := range months {
		fmt.Fprintf(w, "%s,%d\n", m, counts[m])
	}
}

// Figure6 renders the protocol/port distribution.
func Figure6(w io.Writer, ps core.PortStats) {
	fmt.Fprintf(w, "# Figure 6: Protocol and port distribution of DNS-infrastructure attacks\n")
	fmt.Fprintf(w, "attacks,%d\nsingle_port_share,%.3f\n", ps.Total, ps.SinglePortShare())
	for _, proto := range []packet.Protocol{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP} {
		fmt.Fprintf(w, "proto_share,%s,%.3f\n", proto, ps.ProtoShare(proto))
	}
	for _, proto := range []packet.Protocol{packet.ProtoTCP, packet.ProtoUDP} {
		type pc struct {
			port  uint16
			count int
		}
		var list []pc
		for port, c := range ps.PortCounts[proto] {
			list = append(list, pc{port, c})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].count != list[j].count {
				return list[i].count > list[j].count
			}
			return list[i].port < list[j].port
		})
		for i, e := range list {
			if i >= 5 {
				break
			}
			fmt.Fprintf(w, "port_share,%s,%d,%.3f\n", proto, e.port, ps.PortShare(proto, e.port))
		}
	}
}

// Scatter renders a scatter dataset (Figures 7 and 8).
func Scatter(w io.Writer, title, xlabel, ylabel string, pts []core.ScatterPoint) {
	fmt.Fprintf(w, "# %s\n%s,%s,size_bin\n", title, xlabel, ylabel)
	for _, p := range pts {
		fmt.Fprintf(w, "%g,%g,%s\n", p.X, p.Y, stats.LogBinLabel(p.SizeBin))
	}
}

// Correlation renders a Figure 9/10 correlation result.
func Correlation(w io.Writer, title string, r core.CorrelationResult) {
	fmt.Fprintf(w, "# %s\n", title)
	if r.Defined {
		fmt.Fprintf(w, "pearson,%.3f\nn,%d\n", r.Pearson, len(r.X))
	} else {
		fmt.Fprintf(w, "pearson,undefined\nn,%d\n", len(r.X))
	}
}

// Groups renders Figure 11/12/13 group-impact summaries.
func Groups(w io.Writer, title string, groups []core.GroupImpact) {
	fmt.Fprintf(w, "# %s\ngroup,n,mean,median,p95,max,share>=10x,share>=100x\n", title)
	for _, g := range groups {
		fmt.Fprintf(w, "%s,%d,%.2f,%.2f,%.2f,%.2f,%.3f,%.3f\n",
			g.Label, g.N, g.Mean, g.Median, g.P95, g.Max, g.Share10x, g.Share100)
	}
}

// DurationModes renders the §6.5 duration histogram modes.
func DurationModes(w io.Writer, h *stats.Histogram) {
	fmt.Fprintf(w, "# Attack duration distribution (minutes)\n")
	modes := h.Modes(5)
	for i, m := range modes {
		if i >= 4 {
			break
		}
		fmt.Fprintf(w, "mode_%d,%.0f\n", i+1, m)
	}
	fmt.Fprintf(w, "n,%d\n", h.N)
}

// IntensityModes renders the §6.4 telescope-intensity histogram modes, each
// as the centre of its log10(ppm) bin and in ppm.
func IntensityModes(w io.Writer, h *stats.Histogram) {
	fmt.Fprintf(w, "# Telescope intensity distribution (peak ppm)\n")
	for i, m := range h.Modes(3) {
		fmt.Fprintf(w, "mode_%d,log10=%.2f,ppm=%.0f\n", i+1, m, math.Pow(10, m))
	}
	fmt.Fprintf(w, "n,%d\n", h.N)
}

// FailureBreakdown renders the §6.3.1 complete-failure statistics.
func FailureBreakdown(w io.Writer, fb core.FailureBreakdown) {
	fmt.Fprintf(w, "# Resolution failures (§6.3.1)\n")
	fmt.Fprintf(w, "events,%d\nevents_with_failures,%d\ncomplete_failures,%d\n",
		fb.Events, fb.WithFailures, fb.CompleteFails)
	fmt.Fprintf(w, "timeout_share,%.2f\nservfail_share,%.2f\n", fb.TimeoutShare(), fb.ServFailShare())
	fmt.Fprintf(w, "unicast_share_of_failing,%.2f\nsingle_asn_share_of_complete,%.2f\nsingle_prefix_share_of_failing,%.2f\n",
		fb.UnicastFailShare, fb.SingleASNFailShare, fb.SinglePrefixFailShare)
}

// SkippedDayRow is one quarantined day-shard of a supervised study run
// (study.RunReport.SkippedDays, minus the stack trace).
type SkippedDayRow struct {
	Day      clock.Day
	Reason   string
	Attempts int
}

// SkippedDays renders the quarantine report of a supervised run: which
// daily sweeps were lost to panics or watchdog timeouts, so a completed
// run is never mistaken for a complete one.
func SkippedDays(w io.Writer, rows []SkippedDayRow) {
	if len(rows) == 0 {
		fmt.Fprintf(w, "Skipped days: none\n")
		return
	}
	t := Table{
		Title:   fmt.Sprintf("Skipped days: %d day-shard(s) quarantined", len(rows)),
		Headers: []string{"Day", "Attempts", "Reason"},
	}
	for _, r := range rows {
		reason := r.Reason
		if i := strings.IndexByte(reason, '\n'); i >= 0 {
			reason = reason[:i]
		}
		t.Rows = append(t.Rows, []string{r.Day.String(), strconv.Itoa(r.Attempts), reason})
	}
	t.Fprint(w)
}

// eventsHeader is the schema of the joined-events CSV (cmd/joinpipe's
// output and the offline-analysis interchange format).
var eventsHeader = []string{
	"attack_id", "victim", "start", "end", "provider", "nsset_size",
	"hosted_domains", "measured_domains", "ok", "timeouts", "servfails",
	"impact", "failure_rate", "anycast_class", "num_asns", "num_prefixes",
}

// EventsCSV writes the joined attack events as CSV with a header row.
func EventsCSV(w io.Writer, events []core.Event) error {
	if err := EventsCSVHeader(w); err != nil {
		return err
	}
	return EventsCSVRows(w, events)
}

// EventsCSVHeader writes just the header row of the joined-events CSV —
// the once-per-file half of an incremental writer (cmd/streamjoin emits
// rows batch by batch as the stream closes windows).
func EventsCSVHeader(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(eventsHeader); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// EventsCSVRows appends event rows without a header, in feed order. A
// row's fields are formatted back to back into one reused buffer and cut
// out of one string — one allocation per row where a strconv.Format* or
// Time.Format call per field cost one each. Quoting stays encoding/csv's.
func EventsCSVRows(w io.Writer, events []core.Event) error {
	cw := csv.NewWriter(w)
	var (
		buf  = make([]byte, 0, 256)
		ends = make([]int, 0, len(eventsHeader)) // ends[i]: where field i stops in buf
		row  = make([]string, len(eventsHeader))
	)
	// field closes the current field at the end of b, buf with the field's
	// bytes appended (or buf as it is: an empty field).
	field := func(b []byte) { buf, ends = b, append(ends, len(b)) }
	num := func(v int) { field(strconv.AppendInt(buf, int64(v), 10)) }
	for i := range events {
		e := &events[i]
		buf, ends = buf[:0], ends[:0]
		num(e.Attack.ID)
		field(e.Attack.Victim.Netip().AppendTo(buf))
		field(e.Attack.Start().UTC().AppendFormat(buf, time.RFC3339))
		field(e.Attack.End().UTC().AppendFormat(buf, time.RFC3339))
		field(append(buf, e.Provider...))
		num(e.NSSet.Size())
		num(e.HostedDomains)
		num(e.MeasuredDomains)
		num(e.OK)
		num(e.Timeouts)
		num(e.ServFails)
		if e.HasImpact {
			field(strconv.AppendFloat(buf, e.Impact, 'f', 3, 64))
		} else {
			field(buf)
		}
		field(strconv.AppendFloat(buf, e.FailureRate, 'f', 3, 64))
		field(append(buf, e.AnycastClass.String()...))
		num(e.Diversity.NumASNs)
		num(e.Diversity.NumPrefixes)
		s, lo := string(buf), 0
		for j, hi := range ends {
			row[j], lo = s[lo:hi], hi
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
