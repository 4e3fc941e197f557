package dist

import (
	"context"
	"errors"
	"fmt"

	"topk/internal/obs"
	"topk/internal/transport"
)

// mDistRestarts counts query reruns spent by the restart driver — the
// coarse recovery path, next to the transport's finer-grained handoff
// and failover counters.
var mDistRestarts = obs.GetCounter("topk_dist_restarts_total", "Query reruns spent by the restart driver.", nil)

// RestartPolicy decides when the restart driver may rerun a failed
// query from scratch on the surviving replicas. It composes with the
// transport's session restore: a restore repairs a run in place without
// losing protocol state; restart is the coarser fallback that throws
// the partial run away and starts over, for a list where no replica
// answers within the exchange's retry budget.
type RestartPolicy uint8

const (
	// RestartOff never reruns: the first failure surfaces to the
	// caller unchanged.
	RestartOff RestartPolicy = iota
	// RestartOnFailure reruns only when the failure is a replica
	// failure the transport could not absorb (an
	// *transport.OwnerFailedError) — the one error class where a rerun
	// on the surviving replicas can succeed.
	RestartOnFailure
	// RestartAlways reruns on any non-cancellation error. Useful when
	// failures reach the run as plain transport errors (e.g. a flat
	// unreplicated topology, where there is no failover machinery to
	// classify them).
	RestartAlways
)

// RestartConfig bounds the restart driver.
type RestartConfig struct {
	// Policy decides which failures are worth a rerun.
	Policy RestartPolicy
	// MaxRestarts is the rerun budget: a query is attempted at most
	// 1+MaxRestarts times. Zero means no reruns even when Policy would
	// allow one.
	MaxRestarts int
}

// ExhaustedError reports that the restart budget ran out: every
// attempt failed and the policy was not allowed another. Err is the
// last attempt's failure — when the runs died on a replica it wraps a
// *transport.OwnerFailedError naming the list and replica, so
// errors.As through an ExhaustedError still identifies the culprit.
type ExhaustedError struct {
	// Attempts is the total number of runs spent (1 + restarts).
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *ExhaustedError) Error() string {
	return fmt.Sprintf("dist: restart budget exhausted after %d attempts: %v", e.Attempts, e.Err)
}

func (e *ExhaustedError) Unwrap() error { return e.Err }

// RunWithRestart executes run, rerunning it per cfg when it fails.
// Each rerun starts the protocol from scratch: the transport opens a
// fresh session, so replicas that died during earlier attempts are
// rediscovered as failed and routed around, and the completing run's
// primary accounting (Items, Accesses, Net) is bit-identical to an
// undisturbed run — an abandoned attempt's traffic is never merged in.
// Only Result.Recovery records the disturbance: Restarts counts the
// reruns spent, and FailedReplicas includes replicas that failed
// abandoned attempts.
//
// Before each rerun it pauses a full-jitter backoff whose window
// doubles with every rerun (transport.Pause), so the reruns spread past
// a brief outage instead of all landing inside it. Cancelling ctx cuts
// the pause short and returns the context's error.
//
// Failures RunWithRestart never retries: context cancellation (the
// caller gave up — rerunning would outlive their deadline) and, under
// RestartOnFailure, anything that is not a replica failure.
func RunWithRestart(ctx context.Context, run func() (*Result, error), cfg RestartConfig) (*Result, error) {
	restarts := 0
	failed := 0
	for {
		res, err := run()
		if err == nil {
			res.Recovery.Restarts = restarts
			res.Recovery.FailedReplicas += failed
			return res, nil
		}
		if cfg.Policy == RestartOff || ctx.Err() != nil || !restartable(cfg.Policy, err) {
			return nil, err
		}
		if restarts >= cfg.MaxRestarts {
			return nil, &ExhaustedError{Attempts: restarts + 1, Err: err}
		}
		// The failed attempt pinned (at least) the replica named by the
		// owner-failure; count it so the completing run's FailedReplicas
		// covers the whole query, not just the final attempt.
		var ofe *transport.OwnerFailedError
		if errors.As(err, &ofe) {
			failed++
		}
		restarts++
		mDistRestarts.Inc()
		if err := transport.Pause(ctx, restarts); err != nil {
			return nil, err
		}
	}
}

func restartable(p RestartPolicy, err error) bool {
	if p == RestartAlways {
		return true
	}
	var ofe *transport.OwnerFailedError
	return errors.As(err, &ofe)
}
