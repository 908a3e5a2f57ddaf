package clock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestWindowOfBoundaries(t *testing.T) {
	if w := WindowOf(StudyStart); w != 0 {
		t.Errorf("WindowOf(StudyStart) = %d", w)
	}
	if w := WindowOf(StudyStart.Add(WindowDur - time.Nanosecond)); w != 0 {
		t.Errorf("end of first window = %d", w)
	}
	if w := WindowOf(StudyStart.Add(WindowDur)); w != 1 {
		t.Errorf("start of second window = %d", w)
	}
	if w := WindowOf(StudyStart.Add(-time.Nanosecond)); w != -1 {
		t.Errorf("just before start = %d, want -1", w)
	}
}

// TestWindowOfUnixNanoMatchesWindowOf holds the nanosecond form to
// WindowOf on window edges, a nanosecond either side of them and between,
// before and after StudyStart.
func TestWindowOfUnixNanoMatchesWindowOf(t *testing.T) {
	for w := Window(-600); w <= 600; w++ {
		for _, off := range []time.Duration{-time.Nanosecond, 0, time.Nanosecond, WindowDur / 3} {
			at := w.Start().Add(off)
			if got, want := WindowOfUnixNano(at.UnixNano()), WindowOf(at); got != want {
				t.Fatalf("WindowOfUnixNano(%v) = %d, WindowOf %d", at, got, want)
			}
		}
	}
}

func TestWindowStartEndInverse(t *testing.T) {
	f := func(mins uint32) bool {
		tm := StudyStart.Add(time.Duration(mins%900000) * time.Minute)
		w := WindowOf(tm)
		return !tm.Before(w.Start()) && tm.Before(w.End())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowDay(t *testing.T) {
	w := WindowOf(StudyStart.Add(26 * time.Hour))
	if d := w.Day(); d != 1 {
		t.Errorf("window at +26h in day %d, want 1", d)
	}
}

func TestDayOfAndPrev(t *testing.T) {
	d := DayOf(time.Date(2020, 12, 1, 15, 30, 0, 0, time.UTC))
	if d != 30 {
		t.Errorf("2020-12-01 = day %d, want 30", d)
	}
	if d.Prev() != 29 {
		t.Errorf("Prev = %d", d.Prev())
	}
	if got := d.String(); got != "2020-12-01" {
		t.Errorf("String = %q", got)
	}
}

func TestDayWindowAlignment(t *testing.T) {
	// first window of day N is window N*288
	for _, d := range []Day{0, 1, 100, 516} {
		if w := d.FirstWindow(); int64(w) != int64(d)*WindowsPerDay {
			t.Errorf("day %d first window = %d", d, w)
		}
	}
}

func TestStudyMonths(t *testing.T) {
	months := StudyMonths()
	if len(months) != 17 {
		t.Fatalf("study has %d months, want 17", len(months))
	}
	if months[0] != (Month{2020, time.November}) {
		t.Errorf("first month = %v", months[0])
	}
	if months[16] != (Month{2022, time.March}) {
		t.Errorf("last month = %v", months[16])
	}
	for i := 1; i < len(months); i++ {
		if !months[i-1].Before(months[i]) {
			t.Errorf("months not increasing at %d", i)
		}
	}
}

func TestMonthOfYearWrap(t *testing.T) {
	m := Month{2020, time.December}
	if m.Next() != (Month{2021, time.January}) {
		t.Errorf("December.Next = %v", m.Next())
	}
}

func TestStudyDaysAndWindows(t *testing.T) {
	days := StudyDays()
	// Nov 2020 (30) + Dec (31) + 2021 (365) + Jan+Feb+Mar 2022 (31+28+31)
	if days != 30+31+365+31+28+31 {
		t.Errorf("StudyDays = %d", days)
	}
	if StudyWindows() != int64(days)*WindowsPerDay {
		t.Errorf("StudyWindows = %d", StudyWindows())
	}
}

func TestMonthOf(t *testing.T) {
	m := MonthOf(time.Date(2021, 7, 14, 3, 0, 0, 0, time.UTC))
	if m != (Month{2021, time.July}) {
		t.Errorf("MonthOf = %v", m)
	}
	if m.String() != "2021-07" {
		t.Errorf("String = %q", m.String())
	}
}
