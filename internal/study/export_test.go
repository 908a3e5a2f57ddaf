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
