package dist

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"topk/internal/transport"
)

// ownerErr fabricates the typed replica failure the transport surfaces
// when a pinned replica dies and no sibling takes the session.
func ownerErr() error {
	return fmt.Errorf("wrapped: %w", &transport.OwnerFailedError{List: 1, Replica: 0, URL: "u", Err: errors.New("boom")})
}

// failNTimes returns a run that fails with err the first n calls, then
// succeeds.
func failNTimes(n int, err error) func() (*Result, error) {
	calls := 0
	return func() (*Result, error) {
		calls++
		if calls <= n {
			return nil, err
		}
		return &Result{Recovery: Recovery{Handoffs: 0, FailedReplicas: 0}}, nil
	}
}

func TestRunWithRestartOff(t *testing.T) {
	want := ownerErr()
	_, err := RunWithRestart(context.Background(), failNTimes(1, want), RestartConfig{Policy: RestartOff, MaxRestarts: 5})
	if !errors.Is(err, want) {
		t.Fatalf("RestartOff retried: %v", err)
	}
}

func TestRunWithRestartOnFailure(t *testing.T) {
	res, err := RunWithRestart(context.Background(), failNTimes(2, ownerErr()), RestartConfig{Policy: RestartOnFailure, MaxRestarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Restarts != 2 {
		t.Errorf("restarts = %d, want 2", res.Recovery.Restarts)
	}
	// Each abandoned attempt died pinned to a replica; the completing
	// run's tally covers them.
	if res.Recovery.FailedReplicas != 2 {
		t.Errorf("failed replicas = %d, want 2", res.Recovery.FailedReplicas)
	}
}

// TestRunWithRestartPauseCancel: the driver pauses between reruns, so a
// thousand-rerun budget against an instantly failing run is still
// unspent when the context is cancelled; the cancellation cuts the
// pause short and returns the context's error promptly.
func TestRunWithRestartPauseCancel(t *testing.T) {
	const after = 300 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(after, cancel)
	runs := 0
	start := time.Now()
	_, err := RunWithRestart(ctx, func() (*Result, error) {
		runs++
		return nil, ownerErr()
	}, RestartConfig{Policy: RestartOnFailure, MaxRestarts: 1000})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %d runs, want context.Canceled", err, runs)
	}
	if runs < 2 || runs > 100 {
		t.Errorf("%d runs in %v; want reruns, paced by pauses", runs, elapsed)
	}
	if elapsed > after+100*time.Millisecond {
		t.Errorf("returned %v after the cancel, want promptly", elapsed-after)
	}
}

func TestRunWithRestartOnFailureIgnoresOtherErrors(t *testing.T) {
	want := errors.New("k out of range")
	_, err := RunWithRestart(context.Background(), failNTimes(1, want), RestartConfig{Policy: RestartOnFailure, MaxRestarts: 5})
	if !errors.Is(err, want) {
		t.Fatalf("non-replica failure was retried: %v", err)
	}
}

func TestRunWithRestartAlwaysRetriesPlainErrors(t *testing.T) {
	res, err := RunWithRestart(context.Background(), failNTimes(1, errors.New("transient")), RestartConfig{Policy: RestartAlways, MaxRestarts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", res.Recovery.Restarts)
	}
	// A plain error names no replica: nothing to add to the tally.
	if res.Recovery.FailedReplicas != 0 {
		t.Errorf("failed replicas = %d, want 0", res.Recovery.FailedReplicas)
	}
}

func TestRunWithRestartExhausted(t *testing.T) {
	_, err := RunWithRestart(context.Background(), failNTimes(100, ownerErr()), RestartConfig{Policy: RestartOnFailure, MaxRestarts: 2})
	var ee *ExhaustedError
	if !errors.As(err, &ee) {
		t.Fatalf("exhausted budget surfaced as %v, want *ExhaustedError", err)
	}
	if ee.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 restarts)", ee.Attempts)
	}
	// The typed replica failure stays reachable through the wrapper.
	var ofe *transport.OwnerFailedError
	if !errors.As(err, &ofe) || ofe.List != 1 {
		t.Errorf("ExhaustedError does not expose the owner failure: %v", err)
	}
}

func TestRunWithRestartZeroBudget(t *testing.T) {
	_, err := RunWithRestart(context.Background(), failNTimes(1, ownerErr()), RestartConfig{Policy: RestartAlways, MaxRestarts: 0})
	var ee *ExhaustedError
	if !errors.As(err, &ee) || ee.Attempts != 1 {
		t.Fatalf("zero budget = %v, want *ExhaustedError after 1 attempt", err)
	}
}

func TestRunWithRestartHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	run := func() (*Result, error) {
		calls++
		cancel() // the failure arrives with the context already dead
		return nil, ownerErr()
	}
	_, err := RunWithRestart(ctx, run, RestartConfig{Policy: RestartAlways, MaxRestarts: 5})
	if err == nil || calls != 1 {
		t.Fatalf("canceled run restarted (calls=%d, err=%v)", calls, err)
	}
	var ee *ExhaustedError
	if errors.As(err, &ee) {
		t.Fatalf("cancellation misreported as budget exhaustion: %v", err)
	}
}
