package dist

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"topk/internal/gen"
	"topk/internal/obs"
	"topk/internal/score"
	"topk/internal/transport"
)

// withObsEnabled pins the process-wide registry on for the test (it is
// on by default, but a prior test may have flipped it) and restores the
// previous state afterwards.
func withObsEnabled(t *testing.T) {
	t.Helper()
	prev := obs.Default.Enabled()
	obs.Default.SetEnabled(true)
	t.Cleanup(func() { obs.Default.SetEnabled(prev) })
}

// checkTraceInvariants asserts the backend-independent span algebra:
// one span per wire exchange, and the logical request messages summed
// over spans are exactly half of Net.Messages (each logical exchange
// is one request plus one response).
func checkTraceInvariants(t *testing.T, res *Result) {
	t.Helper()
	if int64(len(res.Trace)) != res.Net.Exchanges {
		t.Errorf("trace has %d spans, want Net.Exchanges = %d", len(res.Trace), res.Net.Exchanges)
	}
	var msgs int64
	for i, sp := range res.Trace {
		if sp.Seq != i {
			t.Errorf("span %d: Seq = %d", i, sp.Seq)
		}
		if sp.Round < 0 || sp.Round > res.Net.Rounds {
			t.Errorf("span %d: round %d outside [0,%d]", i, sp.Round, res.Net.Rounds)
		}
		if sp.Owner < 0 || int64(sp.Owner) >= int64(len(res.Net.PerOwner)) {
			t.Errorf("span %d: owner %d out of range", i, sp.Owner)
		}
		if sp.Kind == "" {
			t.Errorf("span %d: empty kind", i)
		}
		if sp.Err != "" {
			t.Errorf("span %d: unexpected error %q", i, sp.Err)
		}
		msgs += int64(sp.Msgs)
	}
	if msgs*2 != res.Net.Messages {
		t.Errorf("spans carry %d logical requests, want Net.Messages/2 = %d", msgs, res.Net.Messages/2)
	}
}

// TestTraceSpanInvariants: tracing records one span per wire exchange
// on every backend and never perturbs the primary accounting — the
// traced run's Items, Net and Accesses are bit-identical to the
// untraced run's on the same backend.
func TestTraceSpanInvariants(t *testing.T) {
	withObsEnabled(t)
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 3})
	bks := backends(t, db)
	ctx := context.Background()
	for name, bk := range bks {
		for _, p := range overProtocols {
			t.Run(name+"/"+p.name, func(t *testing.T) {
				plain, err := p.run(ctx, bk, Options{K: 10, Scoring: score.Sum{}})
				if err != nil {
					t.Fatal(err)
				}
				if plain.Trace != nil {
					t.Fatalf("untraced run carries %d spans", len(plain.Trace))
				}
				traced, err := p.run(ctx, bk, Options{K: 10, Scoring: score.Sum{}, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(traced.Items, plain.Items) {
					t.Errorf("tracing changed the answers")
				}
				if !reflect.DeepEqual(traced.Net, plain.Net) {
					t.Errorf("tracing perturbed Net: %+v vs %+v", traced.Net, plain.Net)
				}
				if traced.Accesses != plain.Accesses {
					t.Errorf("tracing perturbed accesses: %v vs %v", traced.Accesses, plain.Accesses)
				}
				checkTraceInvariants(t, traced)
				for i, sp := range traced.Trace {
					switch name {
					case "loopback", "concurrent":
						if sp.Replica != -1 || sp.URL != "loopback" {
							t.Errorf("span %d: in-process span names replica %d url %q", i, sp.Replica, sp.URL)
						}
						if sp.ReqBytes != 0 || sp.RespBytes != 0 {
							t.Errorf("span %d: in-process span carries wire bytes %d/%d", i, sp.ReqBytes, sp.RespBytes)
						}
					default: // http
						if sp.Replica < 0 || sp.URL == "" {
							t.Errorf("span %d: HTTP span missing replica/url: %+v", i, sp)
						}
						if sp.ReqBytes <= 0 || sp.RespBytes <= 0 {
							t.Errorf("span %d: HTTP span missing wire bytes: %+v", i, sp)
						}
						if sp.Attempts < 1 {
							t.Errorf("span %d: attempts = %d", i, sp.Attempts)
						}
					}
				}
			})
		}
	}
}

// TestReplicatedTopologyParityObserved re-runs the replicated-cluster
// parity suite with metrics explicitly enabled AND per-exchange tracing
// armed: the observability layer must be invisible to the paper's
// accounting — answers, Net and access counts stay bit-identical to the
// plain loopback reference.
func TestReplicatedTopologyParityObserved(t *testing.T) {
	withObsEnabled(t)
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 300, M: 4, Seed: 3})
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range overProtocols {
		t.Run(p.name, func(t *testing.T) {
			want, err := p.run(ctx, lb, Options{K: 10, Scoring: score.Sum{}})
			if err != nil {
				t.Fatal(err)
			}
			hc, _ := replicatedCluster(t, db, 2, transport.RoutePrimary, nil)
			got, err := p.run(ctx, hc, Options{K: 10, Scoring: score.Sum{}, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Items, want.Items) {
				t.Errorf("answers differ with observability on:\n%v\nvs loopback\n%v", got.Items, want.Items)
			}
			if !reflect.DeepEqual(got.Net, want.Net) {
				t.Errorf("Net differs with observability on: %+v vs loopback %+v", got.Net, want.Net)
			}
			if got.Accesses != want.Accesses {
				t.Errorf("accesses differ with observability on: %v vs loopback %v", got.Accesses, want.Accesses)
			}
			checkTraceInvariants(t, got)
		})
	}
}

// TestRestartCounterMoves: the restart driver's rerun counter moves by
// exactly the reruns spent.
func TestRestartCounterMoves(t *testing.T) {
	withObsEnabled(t)
	c := obs.GetCounter("topk_dist_restarts_total", "Query reruns spent by the restart driver.", nil)
	before := c.Value()
	calls := 0
	res, err := RunWithRestart(context.Background(), func() (*Result, error) {
		calls++
		if calls < 3 {
			return nil, errors.New("boom")
		}
		return &Result{}, nil
	}, RestartConfig{Policy: RestartAlways, MaxRestarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Recovery.Restarts)
	}
	if got := c.Value() - before; got != 2 {
		t.Errorf("topk_dist_restarts_total moved by %d, want 2", got)
	}
}
