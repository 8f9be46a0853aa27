// Package retry drives the serve daemon's job retries, its one use:
// capped exponential backoff with deterministic seeded jitter, aware of
// context cancellation and of permanent (non-retryable) errors. Local
// file I/O is not retried: a failed journal or store write is permanent
// (see campaign.Journal).
//
// Determinism matters here for the same reason it matters everywhere
// else in the simulator: two runs of the same configuration must make
// the same decisions. The jitter stream is a pure function of
// (Policy.Seed, attempt), derived with the same splitmix64 mix the
// campaign engine uses for shard seeds — no global RNG, no wall clock.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Policy describes one retry budget. The zero policy performs exactly
// one attempt with no backoff, so an unconfigured policy degrades to
// "just call the function".
type Policy struct {
	// MaxAttempts is the total number of attempts including the first;
	// values below 1 mean 1 (no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means uncapped.
	MaxDelay time.Duration
	// Jitter is the fraction of each delay that is randomized away
	// (0..1): the effective delay is delay * (1 - Jitter*u) with
	// u in [0,1) drawn deterministically from Seed and the attempt
	// number. 0 disables jitter.
	Jitter float64
	// Seed roots the deterministic jitter stream. Two policies with the
	// same seed produce identical delay sequences.
	Seed int64
}

// Attempts returns the effective attempt budget (>= 1).
func (p Policy) Attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Delay returns the backoff to sleep after failed attempt number
// attempt (0-based: Delay(0) precedes the first retry). It is a pure
// function of the policy, so schedulers can pre-compute or report it
// (e.g. as a Retry-After hint) without consuming randomness.
func (p Policy) Delay(attempt int) time.Duration {
	if p.BaseDelay <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 0; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		u := unit(p.Seed, attempt)
		d = time.Duration(float64(d) * (1 - j*u))
	}
	return d
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so Do stops immediately instead of burning the
// remaining attempts. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// Do runs fn under the policy: attempt, and on failure back off
// (Delay) and attempt again until the budget is spent, fn succeeds,
// fn returns a Permanent error, or ctx is cancelled. The returned
// error is the last attempt's (unwrapped from its Permanent marker),
// or the context error when cancellation cut the loop short.
func (p Policy) Do(ctx context.Context, fn func() error) error {
	attempts := p.Attempts()
	var last error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		last = fn()
		if last == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(last, &pe) {
			return pe.err
		}
		if errors.Is(last, context.Canceled) || errors.Is(last, context.DeadlineExceeded) {
			return last
		}
		if i == attempts-1 {
			break
		}
		if err := sleep(ctx, p.Delay(i)); err != nil {
			return fmt.Errorf("%w (last attempt: %v)", err, last)
		}
	}
	return last
}

// sleep waits d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// unit returns a deterministic value in [0,1) for (seed, n) using a
// splitmix64 mix — the same generator family the campaign engine uses
// for shard seeds, chosen for well-separated streams at neighboring n.
func unit(seed int64, n int) float64 {
	x := uint64(seed) + (uint64(n)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
