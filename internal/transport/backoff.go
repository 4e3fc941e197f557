package transport

import (
	"context"
	"math/rand/v2"
	"time"
)

// Exponential backoff with full jitter for the retry paths. One
// immediate retry was fine when the only failure mode was a dead
// process — the sibling answered instantly — but under overload or a
// flapping network an immediate identical re-send is exactly the wrong
// reflex: every client re-offers its load at the same instant and the
// congestion that failed the first attempt fails the second. Full
// jitter (sleep a uniform draw from (0, min(cap, base<<attempt)])
// decorrelates the retriers; the AWS-style analysis shows it reaches a
// contended resource as fast as exponential backoff while spreading
// the arrivals almost uniformly.

// DefaultBackoffBase is the upper bound of the first retry's jittered
// sleep. Small: the common transient (one lost connection to a live
// replica) deserves a near-immediate second attempt.
const DefaultBackoffBase = 2 * time.Millisecond

// DefaultBackoffCap bounds the jitter window however many attempts
// have failed, so a long retry budget degrades into a steady paced
// trickle instead of multi-second dead air before a typed error.
const DefaultBackoffCap = 250 * time.Millisecond

// backoff is a stateless full-jitter policy: delay(a) draws the sleep
// before retry attempt a (a >= 1). The zero value disables sleeping —
// the pre-backoff immediate-retry behaviour.
type backoff struct {
	base time.Duration // first window; <= 0 disables
	cap  time.Duration // largest window
}

// defaultBackoff resolves the dial-config knobs: zero means the
// defaults, negative base disables backoff entirely.
func defaultBackoff(base, cap time.Duration) backoff {
	switch {
	case base == 0:
		base = DefaultBackoffBase
	case base < 0:
		return backoff{}
	}
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	if cap < base {
		cap = base
	}
	return backoff{base: base, cap: cap}
}

// delay returns the jittered sleep before retry attempt a (the first
// retry is a=1). Never zero when armed — two identical attempts must
// never fire back-to-back — and never above the cap: the window is
// min(cap, base<<(a-1)) with the shift clamped against overflow, and
// the draw is uniform over (0, window].
func (b backoff) delay(a int) time.Duration {
	if b.base <= 0 {
		return 0
	}
	window := b.cap
	if shift := a - 1; shift >= 0 && shift < 62 {
		if w := b.base << shift; w > 0 && w < window {
			window = w
		}
	}
	if window < 1 {
		window = 1
	}
	return 1 + time.Duration(rand.Int64N(int64(window)))
}

// Pause sleeps the default full-jitter backoff before retry attempt a
// (a >= 1) — a uniform draw from (0, min(DefaultBackoffCap,
// DefaultBackoffBase<<(a-1))] — or until ctx is done, returning the
// context's error when it cut the sleep short. Retry loops outside the
// transport (the dist restart driver) pace themselves with it.
func Pause(ctx context.Context, a int) error {
	return sleepCtx(ctx, defaultBackoff(0, 0).delay(a))
}

// sleepCtx blocks for d or until ctx is done, whichever is first,
// returning the context's error when it cut the sleep short. A
// non-positive d only checks the context.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
