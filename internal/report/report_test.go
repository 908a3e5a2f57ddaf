package report

import (
	"bytes"
	"encoding/csv"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/packet"
	"dnsddos/internal/stats"
)

func TestTableAlignment(t *testing.T) {
	tbl := Table{
		Title:   "T",
		Headers: []string{"a", "long-header"},
		Rows:    [][]string{{"value-longer-than-header", "x"}},
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// all data lines have equal width
	for i := 2; i < len(lines); i++ {
		if len(lines[i]) != len(lines[1]) {
			t.Errorf("ragged table:\n%s", buf.String())
		}
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, core.DatasetSummary{Attacks: 100, IPs: 90, Slash24s: 80, ASes: 20})
	out := buf.String()
	for _, want := range []string{"100", "90", "80", "20", "#Attacks"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Formatting(t *testing.T) {
	var buf bytes.Buffer
	Table2(&buf, []Table2Row{
		{Attack: "Dec 2020", NS: "A", PeakPPM: 21800, InferredPPS: 124000, Gbps: 1.39, AttackerIPs: 5_790_000},
		{Attack: "Dec 2020", NS: "B", PeakPPM: 3800, InferredPPS: 21600, Gbps: 0.247, AttackerIPs: 1_570_000},
	})
	out := buf.String()
	for _, want := range []string{"21.8K", "124K", "1.4 Gbps", "5.79M", "247 Mbps"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3Totals(t *testing.T) {
	var buf bytes.Buffer
	rows := []core.MonthRow{
		{Month: clock.Month{Year: 2020, Month: time.November}, DNSAttacks: 10, OtherAttack: 990, DNSIPs: 8, OtherIPs: 700},
		{Month: clock.Month{Year: 2020, Month: time.December}, DNSAttacks: 20, OtherAttack: 1980, DNSIPs: 15, OtherIPs: 1400},
	}
	Table3(&buf, rows)
	out := buf.String()
	if !strings.Contains(out, "Total") || !strings.Contains(out, "30 (1.00%)") {
		t.Errorf("Table3 totals wrong:\n%s", out)
	}
}

func TestTables456(t *testing.T) {
	var buf bytes.Buffer
	Table4(&buf, []core.RankedASN{{ASN: 15169, Org: "Google", Attacks: 7324}})
	Table5(&buf, []core.RankedIP{{IP: netx.MustParseAddr("8.8.4.4"), Attacks: 2803, Type: "open resolver"}})
	Table6(&buf, []core.AffectedOrg{{Org: "NForce B.V.", Impact: 348}})
	out := buf.String()
	for _, want := range []string{"15169", "Google", "8.8.4.4", "2803", "NForce B.V.", "348x"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFigures2And3(t *testing.T) {
	samples := []core.RTTSample{
		{Window: 100, AvgRTT: 5 * time.Millisecond, Domains: 10, Timeouts: 0},
		{Window: 101, AvgRTT: 50 * time.Millisecond, Domains: 10, Timeouts: 2},
	}
	var buf bytes.Buffer
	Figure2(&buf, "test", samples)
	Figure3(&buf, "test", samples)
	out := buf.String()
	if !strings.Contains(out, "5.00,10") || !strings.Contains(out, "50.00,10") {
		t.Errorf("Figure2 rows missing:\n%s", out)
	}
	if !strings.Contains(out, "20.0,10") {
		t.Errorf("Figure3 timeout pct missing:\n%s", out)
	}
}

func TestFigure5Sorted(t *testing.T) {
	var buf bytes.Buffer
	Figure5(&buf, map[clock.Month]int{
		{Year: 2021, Month: time.February}: 5,
		{Year: 2020, Month: time.December}: 9,
	})
	out := buf.String()
	if strings.Index(out, "2020-12") > strings.Index(out, "2021-02") {
		t.Errorf("months not sorted:\n%s", out)
	}
}

func TestFigure6(t *testing.T) {
	ps := core.PortStats{
		Total: 10, SinglePort: 8,
		ProtoCounts:       map[packet.Protocol]int{packet.ProtoTCP: 9, packet.ProtoUDP: 1},
		SinglePortByProto: map[packet.Protocol]int{packet.ProtoTCP: 7, packet.ProtoUDP: 1},
		PortCounts: map[packet.Protocol]map[uint16]int{
			packet.ProtoTCP: {80: 4, 53: 3},
			packet.ProtoUDP: {53: 1},
		},
	}
	var buf bytes.Buffer
	Figure6(&buf, ps)
	out := buf.String()
	if !strings.Contains(out, "single_port_share,0.800") {
		t.Errorf("single port share missing:\n%s", out)
	}
	if !strings.Contains(out, "port_share,TCP,80,0.571") {
		t.Errorf("TCP/80 share missing:\n%s", out)
	}
}

func TestScatterAndCorrelationAndGroups(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "fig", "x", "y", []core.ScatterPoint{{X: 100, Y: 5, SizeBin: 2}})
	Correlation(&buf, "corr", core.CorrelationResult{Pearson: 0.12, Defined: true, X: []float64{1, 2}, Y: []float64{3, 4}})
	Correlation(&buf, "undef", core.CorrelationResult{})
	Groups(&buf, "groups", []core.GroupImpact{{Label: "unicast", N: 3, Mean: 5, Median: 2, P95: 12, Max: 20, Share10x: 0.3}})
	out := buf.String()
	for _, want := range []string{"100,5,100-1K", "pearson,0.120", "pearson,undefined", "unicast,3,5.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestDurationModes(t *testing.T) {
	h := stats.NewHistogram(0, 180, 36)
	for i := 0; i < 100; i++ {
		h.Add(15)
		h.Add(62)
	}
	var buf bytes.Buffer
	DurationModes(&buf, h)
	out := buf.String()
	if !strings.Contains(out, "mode_1,") || !strings.Contains(out, "n,200") {
		t.Errorf("modes output:\n%s", out)
	}
}

func TestFailureBreakdownRenderer(t *testing.T) {
	var buf bytes.Buffer
	FailureBreakdown(&buf, core.FailureBreakdown{
		Events: 100, WithFailures: 5, CompleteFails: 2,
		Timeouts: 92, ServFails: 8,
		UnicastFailShare: 0.99, SingleASNFailShare: 0.81, SinglePrefixFailShare: 0.6,
	})
	out := buf.String()
	for _, want := range []string{"events,100", "timeout_share,0.92", "servfail_share,0.08", "single_asn_share_of_complete,0.81"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestEventsCSV(t *testing.T) {
	events := []core.Event{
		{
			Attack:          core.ClassifiedAttack{},
			HostedDomains:   42,
			MeasuredDomains: 7,
			OK:              5, Timeouts: 2,
			Impact: 12.5, HasImpact: true,
			FailureRate: 0.285,
			Provider:    "TestDNS",
		},
	}
	var buf bytes.Buffer
	if err := EventsCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	for _, want := range []string{"TestDNS", "42", "12.500", "0.285"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("row missing %q: %s", want, lines[1])
		}
	}
}

// eventsCSVRowsRef is EventsCSVRows as it was before rows were formatted
// into one buffer — a Format call and a string per field — kept as the
// oracle the append-style writer must match byte for byte.
func eventsCSVRowsRef(w io.Writer, events []core.Event) error {
	cw := csv.NewWriter(w)
	for _, e := range events {
		impact := ""
		if e.HasImpact {
			impact = strconv.FormatFloat(e.Impact, 'f', 3, 64)
		}
		if err := cw.Write([]string{
			strconv.Itoa(e.Attack.ID),
			e.Attack.Victim.String(),
			e.Attack.Start().UTC().Format(time.RFC3339),
			e.Attack.End().UTC().Format(time.RFC3339),
			e.Provider,
			strconv.Itoa(e.NSSet.Size()),
			strconv.Itoa(e.HostedDomains),
			strconv.Itoa(e.MeasuredDomains),
			strconv.Itoa(e.OK),
			strconv.Itoa(e.Timeouts),
			strconv.Itoa(e.ServFails),
			impact,
			strconv.FormatFloat(e.FailureRate, 'f', 3, 64),
			e.AnycastClass.String(),
			strconv.Itoa(e.Diversity.NumASNs),
			strconv.Itoa(e.Diversity.NumPrefixes),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TestEventsCSVRowsMatchReference: rows formatted into the reused buffer
// are the reference writer's bytes — provider names encoding/csv must
// quote (a comma, a quote and a leading space; a line break), an absent
// impact, negative and many-digit numbers, windows before the study start
// — and the writer allocates one string per row beside its fixed set-up
// (the csv writer, its bufio writer and 4 KB buffer, the field slice).
func TestEventsCSVRowsMatchReference(t *testing.T) {
	ev := func(id int, victim string, from, to clock.Window, provider string, impact float64, has bool) core.Event {
		e := core.Event{
			NSSet:         nsset.KeyOf([]netx.Addr{netx.MustParseAddr("192.0.2.1"), netx.MustParseAddr("198.51.100.7")}),
			HostedDomains: 1234567, MeasuredDomains: 42, OK: 30, Timeouts: 9, ServFails: 3,
			Impact: impact, HasImpact: has, FailureRate: 2.0 / 7,
			Diversity:    nsset.Diversity{NumNS: 2, NumASNs: 2, NumPrefixes: 2, NumAnycast: 1},
			AnycastClass: nsset.PartialAnycast,
			Provider:     provider,
		}
		e.Attack.ID, e.Attack.Victim = id, netx.MustParseAddr(victim)
		e.Attack.StartWindow, e.Attack.EndWindow = from, to
		return e
	}
	events := []core.Event{
		ev(1, "192.0.2.53", 100, 112, ` Acme, "the" DNS`, 12.3456, true),
		ev(-7, "255.255.255.255", -300, -1, "two\nlines", 0, false),
		ev(1<<40, "0.0.0.0", 123456, 123456, "", 1e9+0.0005, true),
		ev(4, "10.1.2.3", 0, 0, "plain", 0.9995, true),
	}
	var got, want bytes.Buffer
	if err := EventsCSVRows(&got, events); err != nil {
		t.Fatal(err)
	}
	if err := eventsCSVRowsRef(&want, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("rows differ from the reference writer's:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
	if !strings.Contains(want.String(), `" Acme, ""the"" DNS"`) {
		t.Fatalf("the reference did not quote the provider:\n%s", want.Bytes())
	}
	if n := testing.AllocsPerRun(20, func() { EventsCSVRows(io.Discard, events) }); n > float64(len(events))+4 {
		t.Errorf("writing %d rows allocates %v times, want ≤ one per row + 4", len(events), n)
	}
}
