// Package resilience is the unified overload-and-retry policy layer of
// the reproduction. The paper's attack feed is bursty by construction —
// pulse-wave and carpet-bombing campaigns arrive in spikes far above
// steady-state rate — and the serving and resolving components all face
// the same three questions under that load:
//
//   - admission: how much work may enter right now (TokenBucket)?
//   - retry: how hard may a failed operation be retried, and with what
//     spacing (RetryBudget, decorrelated-jitter backoff)?
//   - isolation: when is a peer so unhealthy that trying it at all is
//     wasted work (Breaker, per-peer circuit breaking with half-open
//     probing)?
//
// Before this package each consumer answered ad hoc: the live resolver
// had its own shifted-exponential backoff, the day-snapshot cache an
// unthrottled waiter-retry loop. The primitives here replace
// those constants with one policy surface, so tuning overload behaviour
// happens in one place and every component degrades the same way.
//
// Determinism: TokenBucket is driven by caller-supplied timestamps
// (stream time), never the wall clock, so a seeded replay admits and
// sheds identically on every run. RetryBudget and Breaker are wall-clock
// creatures by nature (they pace real retries against real peers) but
// accept a seeded *rand.Rand so tests can pin their draws.
package resilience

import "time"

// DefaultCap is the backoff cap shared by every adopter that does not
// override it: the longest the decorrelated jitter may grow to, and a
// breaker's cooldown. Centralised here so "how fast do we hammer a
// failing dependency" is a policy decision, not a per-package constant.
const DefaultCap = 2 * time.Second
