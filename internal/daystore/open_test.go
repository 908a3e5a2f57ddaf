package daystore_test

import (
	"context"
	"io"
	"testing"

	"dnsddos/internal/daystore"
	"dnsddos/internal/study"
)

// open_test.go measures the cold open of a sealed day directory in the
// shape of the repo benchmark's join_dense set-up: a study of 6,000
// domains and 20,000 attacks over 150 days, swept and sealed, its join
// skipped. `make test` runs BenchmarkOpen as a -benchtime=1x smoke, `make
// bench-join` prints it with -benchmem beside the cold join it is part of.

// sealJoinDense sweeps and seals the join_dense study under a temporary
// directory and returns it.
func sealJoinDense(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	cfg := study.DefaultConfig()
	cfg.World.Domains = 6000
	cfg.World.GenericProviders = 60
	cfg.Attacks.TotalAttacks = 20000
	cfg.Attacks.DNSShare = 0.15
	cfg.FromDay, cfg.ToDay = 0, 149
	swept, err := study.RunContext(context.Background(), cfg, study.WithDayStoreDir(dir), study.WithSkipJoin())
	if err != nil {
		tb.Fatal(err)
	}
	if c, ok := swept.Pipeline.DayStore().(io.Closer); ok {
		if err := c.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// openVerify is one cold open: scan the directory, map and validate
// every day, unmap.
func openVerify(tb testing.TB, dir string) {
	set, err := daystore.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := set.Verify(); err != nil {
		tb.Fatal(err)
	}
	if err := set.Close(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkOpen is a cold Open plus Verify of the sealed join_dense
// directory, then Close: what a re-join pays for the day store before it
// reads a window.
func BenchmarkOpen(b *testing.B) {
	dir := sealJoinDense(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		openVerify(b, dir)
	}
}
