// Package retry holds the retry schedule shared by the shard runner and
// meshd's warms: capped exponential backoff with deterministic jitter,
// and a cancelable wait. Each caller seeds its own jitter stream, so its
// schedule replays identically at any concurrency.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Backoff returns retry attempt k's sleep (k counts from 0): base << k,
// capped at base << 6, plus up to half again of jitter drawn from rng —
// so concurrent retriers desynchronize without making runs
// timing-dependent.
func Backoff(base time.Duration, k int, rng *rand.Rand) time.Duration {
	d := base << uint(k)
	if max := base << 6; d > max || d <= 0 {
		d = max
	}
	return d + time.Duration(rng.Int63n(int64(d)/2+1))
}

// Sleep waits d or until ctx is done, whichever is first; it returns
// ctx.Err() when the wait was cut short.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
