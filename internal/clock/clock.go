// Package clock defines the simulation time base: the paper's 17-month study
// window (2020-11-01 .. 2022-03-31 UTC) discretized into 5-minute tumbling
// windows (the granularity of both the RSDoS feed and the aggregated
// OpenINTEL metrics, §4.1) and UTC days (the OpenINTEL measurement cadence).
package clock

import (
	"fmt"
	"time"
)

// WindowDur is the tumbling-window width shared by the RSDoS feed and the
// NSSet metric aggregation.
const WindowDur = 5 * time.Minute

// StudyStart and StudyEnd bound the longitudinal analysis interval (§4):
// November 1, 2020 through March 31, 2022 (exclusive end at Apr 1).
var (
	StudyStart = time.Date(2020, time.November, 1, 0, 0, 0, 0, time.UTC)
	StudyEnd   = time.Date(2022, time.April, 1, 0, 0, 0, 0, time.UTC)
)

// Window identifies a 5-minute tumbling window as an index from StudyStart.
type Window int64

// WindowOf returns the window containing t. Times before StudyStart map to
// negative windows; callers inside the study window never see those.
func WindowOf(t time.Time) Window {
	d := t.Sub(StudyStart)
	if d < 0 {
		// floor division for negative offsets
		return Window((d - WindowDur + time.Nanosecond) / WindowDur)
	}
	return Window(d / WindowDur)
}

// WindowOfUnixNano returns WindowOf(time.Unix(0, ns)).
func WindowOfUnixNano(ns int64) Window {
	d := ns - studyStartNano
	if d < 0 {
		return Window((d - int64(WindowDur) + 1) / int64(WindowDur))
	}
	return Window(d / int64(WindowDur))
}

// Start returns the wall-clock start of the window.
func (w Window) Start() time.Time { return StudyStart.Add(time.Duration(w) * WindowDur) }

// UnixNano returns Start().UnixNano() without building the time.Time.
func (w Window) UnixNano() int64 { return studyStartNano + int64(w)*int64(WindowDur) }

var studyStartNano = StudyStart.UnixNano()

// End returns the exclusive end of the window.
func (w Window) End() time.Time { return w.Start().Add(WindowDur) }

// Day returns the day the window starts in.
func (w Window) Day() Day { return DayOf(w.Start()) }

// String renders the window start in RFC 3339.
func (w Window) String() string {
	return fmt.Sprintf("w%d[%s]", int64(w), w.Start().Format("2006-01-02T15:04"))
}

// WindowsPerDay is the number of 5-minute windows in a UTC day.
const WindowsPerDay = int64(24 * time.Hour / WindowDur)

// Day identifies a UTC day as an index from StudyStart.
type Day int32

// DayOf returns the day containing t.
func DayOf(t time.Time) Day {
	d := t.Sub(StudyStart)
	if d < 0 {
		return Day((d - 24*time.Hour + time.Nanosecond) / (24 * time.Hour))
	}
	return Day(d / (24 * time.Hour))
}

// Start returns midnight UTC of the day.
func (d Day) Start() time.Time { return StudyStart.AddDate(0, 0, int(d)) }

// End returns the exclusive end of the day.
func (d Day) End() time.Time { return d.Start().AddDate(0, 0, 1) }

// FirstWindow returns the first 5-minute window of the day.
func (d Day) FirstWindow() Window { return WindowOf(d.Start()) }

// Prev returns the previous day; the join's "day before the attack" snapshot
// (§4.2) and the Eq. 1 baseline both use it.
func (d Day) Prev() Day { return d - 1 }

// String renders the date.
func (d Day) String() string { return d.Start().Format("2006-01-02") }

// Month identifies a calendar month as (year, month); Table 3 and Figure 5
// aggregate per month.
type Month struct {
	Year  int
	Month time.Month
}

// MonthOf returns the calendar month containing t.
func MonthOf(t time.Time) Month {
	u := t.UTC()
	return Month{Year: u.Year(), Month: u.Month()}
}

// Start returns midnight UTC on the first of the month.
func (m Month) Start() time.Time {
	return time.Date(m.Year, m.Month, 1, 0, 0, 0, 0, time.UTC)
}

// Next returns the following calendar month.
func (m Month) Next() Month {
	t := m.Start().AddDate(0, 1, 0)
	return Month{Year: t.Year(), Month: t.Month()}
}

// Before reports whether m precedes o.
func (m Month) Before(o Month) bool {
	return m.Year < o.Year || (m.Year == o.Year && m.Month < o.Month)
}

// String renders "2020-11".
func (m Month) String() string { return fmt.Sprintf("%04d-%02d", m.Year, int(m.Month)) }

// StudyMonths returns the 17 months of the analysis interval in order.
func StudyMonths() []Month {
	var out []Month
	end := MonthOf(StudyEnd.Add(-time.Nanosecond))
	for m := MonthOf(StudyStart); !end.Before(m); m = m.Next() {
		out = append(out, m)
	}
	return out
}

// StudyDays returns the number of days in the analysis interval.
func StudyDays() int {
	return int(StudyEnd.Sub(StudyStart) / (24 * time.Hour))
}

// StudyWindows returns the number of 5-minute windows in the interval.
func StudyWindows() int64 {
	return int64(StudyEnd.Sub(StudyStart) / WindowDur)
}
