// Package leakcheck is the goroutine-leak test helper: NoGoroutineLeaks
// snapshots the goroutine population when armed and verifies at test
// cleanup that everything started since has exited. Servers in this
// repository promise drained shutdown (authserver.Close, the obs
// metrics endpoint, the live resolver's bounded retries); this helper
// turns that promise into a mechanical check. Only tests import it, so
// no binary links the testing package.
package leakcheck

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// leakSettleTimeout bounds how long the cleanup waits for goroutines to
// wind down before declaring a leak; exiting goroutines need a few
// scheduler turns after Close returns.
const leakSettleTimeout = 2 * time.Second

// NoGoroutineLeaks arms a goroutine-leak check for the test: it records
// the current goroutine count and stacks, and at cleanup waits up to
// two seconds for the count to return to the baseline. On failure it
// reports the diff — the stacks present after the test that were not
// running before — rather than two full dumps.
func NoGoroutineLeaks(tb testing.TB) {
	tb.Helper()
	before := runtime.NumGoroutine()
	beforeStacks := goroutineSignatures()
	tb.Cleanup(func() {
		if tb.Failed() {
			return // don't pile a leak report onto a real failure
		}
		deadline := time.Now().Add(leakSettleTimeout)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				leaked := diffSignatures(beforeStacks, goroutineSignatures())
				if len(leaked) == 0 {
					return // population churned but nothing net-new survived
				}
				tb.Errorf("goroutine leak: %d goroutines before, %d after; new survivors:\n%s",
					before, runtime.NumGoroutine(), strings.Join(leaked, "\n---\n"))
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// goroutineSignatures returns a multiset of normalized goroutine stacks:
// the header's goroutine ID and state are stripped so the same code path
// parked twice counts twice under one key.
func goroutineSignatures() map[string]int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	sigs := make(map[string]int)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if g == "" {
			continue
		}
		if i := strings.IndexByte(g, '\n'); i >= 0 {
			g = g[i+1:] // drop "goroutine N [state]:"
		}
		sigs[g]++
	}
	return sigs
}

// diffSignatures lists stacks whose population grew from before to
// after, annotated with the growth count, sorted for stable output.
func diffSignatures(before, after map[string]int) []string {
	var out []string
	for sig, n := range after {
		if grew := n - before[sig]; grew > 0 && !benignStack(sig) {
			out = append(out, fmt.Sprintf("%d new instance(s) of:\n%s", grew, sig))
		}
	}
	sort.Strings(out)
	return out
}

// benignStack filters runtime- and testing-internal goroutines that come
// and go on their own schedule.
func benignStack(sig string) bool {
	for _, frame := range []string{
		"testing.(*T).Run(",
		"testing.runTests(",
		"runtime.gc",
		"runtime/trace",
		"signal.signal_recv",
	} {
		if strings.Contains(sig, frame) {
			return true
		}
	}
	return false
}
