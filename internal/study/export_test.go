package study

import (
	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
)

// Demand is the session's retained-window filter — what its aggregators
// keep per-window metrics for — for the full-retention oracle
// (retention_test.go, in package study_test, which imports report and
// stream, both of which import this package).
func (sess *Session) Demand() func(nsset.ID, clock.Window) bool { return sess.keepsWindow }

// DayDemand is the session's day demand — the (NSSet, day) rows its
// engine measures — for the same oracle.
func (sess *Session) DayDemand() func(nsset.ID, clock.Day) bool { return sess.sweepsDay }

// StudyDemand is the session's window and day demands unclipped: the
// rule newDemand applies, over the study's days and as many again on
// either side, which no attack's margins and days back leave. The
// oracle judges a read's part outside the run's days by it.
func (sess *Session) StudyDemand() (func(nsset.ID, clock.Window) bool, func(nsset.ID, clock.Day) bool) {
	all := *sess
	n := clock.Day(clock.StudyDays())
	all.Config.FromDay, all.Config.ToDay = -n, 2*n
	all.buildDemand(len(sess.windows.ids))
	return all.keepsWindow, all.sweepsDay
}
