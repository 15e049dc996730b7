package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"meshlab/internal/wire"
)

// TestExitCodeMapping pins the full exit-code contract documented on
// ExitCode (0/1/3/4/130 here; 2 is usage and never reaches it).
func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"other", errors.New("anything else"), 1},
		{"checkpoint-write", fmt.Errorf("shard 1: %w", ErrCheckpoint), 1},
		{"corrupt", fmt.Errorf("shard 2: %w", ErrCorruptShard), 3},
		{"exhausted", fmt.Errorf("plan: %w", ErrExhausted), 4},
		// Raw wire corruption (the -sec4 path) classifies without shard
		// wrapping.
		{"wire-corrupt", fmt.Errorf("walk: %w", wire.ErrCorrupt), 3},
		{"canceled", context.Canceled, 130},
		{"deadline", fmt.Errorf("shard: %w", context.DeadlineExceeded), 130},
		// Cancellation wins even when a shard wrapper chained another
		// classified sentinel around it mid-flight.
		{"canceled-inside-exhausted", fmt.Errorf("%w: shard 0: %w", ErrExhausted, context.Canceled), 130},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Fatalf("%s: ExitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{OK: "ok", Quarantined: "quarantined", Exhausted: "exhausted"} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestAttemptRetriesOnlyTransient: attempt retries exactly the failures
// classify presumes transient. A checkpoint failure runs once; a
// transient one runs 1+MaxRetries times.
func TestAttemptRetriesOnlyTransient(t *testing.T) {
	opts := Options{MaxRetries: 3, RetryBase: time.Microsecond}
	for _, c := range []struct {
		name string
		err  error
		runs int
	}{
		{"checkpoint", fmt.Errorf("save: %w", ErrCheckpoint), 1},
		{"transient", errors.New("read: connection reset"), 1 + opts.MaxRetries},
	} {
		runs := 0
		_, attempts, err := attempt(context.Background(), 0, opts, func() (*shardOut, error) {
			runs++
			return nil, c.err
		})
		if !errors.Is(err, c.err) {
			t.Fatalf("%s: attempt returned %v, want %v", c.name, err, c.err)
		}
		if runs != c.runs || attempts != c.runs {
			t.Fatalf("%s: ran %d time(s), reported %d attempt(s); want %d", c.name, runs, attempts, c.runs)
		}
	}
}
