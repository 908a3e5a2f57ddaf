package study_test

import (
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

func init() { study.EventsCSV = report.EventsCSV }
