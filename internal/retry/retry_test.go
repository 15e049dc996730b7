package retry

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestBackoffCapAndDeterminism(t *testing.T) {
	const base = 5 * time.Millisecond
	cap := base << 6
	rng := rand.New(rand.NewSource(3))
	for attempt := 0; attempt < 80; attempt++ {
		d := Backoff(base, attempt, rng)
		if d <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", attempt, d)
		}
		if d > cap+cap/2 {
			t.Fatalf("attempt %d: backoff %v exceeds cap+jitter %v", attempt, d, cap+cap/2)
		}
	}
	// Same seed → same jitter stream: a retry schedule replays
	// identically at any concurrency.
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if x, y := Backoff(base, i, a), Backoff(base, i, b); x != y {
			t.Fatalf("attempt %d: %v != %v from identical rngs", i, x, y)
		}
	}
}

func TestSleepHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := Sleep(context.Background(), time.Microsecond); err != nil {
		t.Fatalf("clean sleep errored: %v", err)
	}
}
