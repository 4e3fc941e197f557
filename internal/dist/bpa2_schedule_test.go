package dist

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/transport"
)

// bpa2Sequential is the one-list-at-a-time BPA2 schedule BPA2Over
// reorders: a bare probe to owner i, then a wave of marks to every
// other owner, Y updated per probe — 2m sequential steps and m² wire
// exchanges per round. It is the reference every owner's request
// sequence and every Result field but Exchanges and Elapsed must match.
func bpa2Sequential(ctx context.Context, t transport.Transport, opts Options) (*Result, error) {
	r, err := newRunner(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	m := r.m

	bestScore := make([]float64, m)
	exhausted := make([]bool, m)
	for i := range bestScore {
		bestScore[i] = inf
	}
	locals := make([]float64, m)

	res := &Result{}
	for {
		r.nw.net.Rounds++
		progress := false
		for i := 0; i < m; i++ {
			if exhausted[i] {
				continue
			}
			resp, err := r.do(i, transport.ProbeReq{})
			if err != nil {
				return nil, err
			}
			pr, err := as[transport.ProbeResp](resp)
			if err != nil {
				return nil, err
			}
			bestScore[i], exhausted[i] = float64(pr.BestScore), pr.Exhausted
			if pr.Empty {
				continue
			}
			progress = true
			locals[i] = pr.Entry.Score
			markCalls := make([]transport.Call, 0, m-1)
			for j := 0; j < m; j++ {
				if j != i {
					markCalls = append(markCalls, transport.Call{Owner: j, Req: transport.MarkReq{Item: pr.Entry.Item}})
				}
			}
			markResps, err := r.doAll(markCalls)
			if err != nil {
				return nil, err
			}
			for c, resp := range markResps {
				j := markCalls[c].Owner
				mr, err := as[transport.MarkResp](resp)
				if err != nil {
					return nil, err
				}
				bestScore[j], exhausted[j] = float64(mr.BestScore), mr.Exhausted
				locals[j] = mr.Score
			}
			r.y.Add(pr.Entry.Item, r.f.Combine(locals))
		}
		if !progress {
			break
		}
		lambda := r.f.Combine(bestScore)
		res.Threshold = lambda
		if r.y.AtLeast(lambda) {
			break
		}
	}

	sts, err := r.stats()
	if err != nil {
		return nil, err
	}
	res.BestPositions = make([]int, m)
	for i, st := range sts {
		res.BestPositions[i] = st.Best
	}
	return r.assemble(res, sts), nil
}

// recording wraps a Transport and logs, per owner, every logical
// request it receives and the answer it gives, in the order the owner
// executes them: batches are flattened into their members.
type recording struct {
	transport.Transport
	mu    sync.Mutex
	reqs  [][]transport.Request
	resps [][]transport.Response
}

func newRecording(t transport.Transport) *recording {
	return &recording{Transport: t, reqs: make([][]transport.Request, t.M()), resps: make([][]transport.Response, t.M())}
}

func (rc *recording) Open(ctx context.Context, tracker bestpos.Kind) (transport.Session, error) {
	s, err := rc.Transport.Open(ctx, tracker)
	if err != nil {
		return nil, err
	}
	return &recordingSession{Session: s, rc: rc}, nil
}

func (rc *recording) log(owner int, req transport.Request, resp transport.Response) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if b, ok := req.(transport.BatchReq); ok {
		rc.reqs[owner] = append(rc.reqs[owner], b.Reqs...)
		rc.resps[owner] = append(rc.resps[owner], resp.(transport.BatchResp).Resps...)
		return
	}
	rc.reqs[owner] = append(rc.reqs[owner], req)
	rc.resps[owner] = append(rc.resps[owner], resp)
}

// probes counts the probes each owner answered.
func (rc *recording) probes() []int {
	out := make([]int, len(rc.reqs))
	for i, reqs := range rc.reqs {
		for _, req := range reqs {
			if _, ok := req.(transport.ProbeReq); ok {
				out[i]++
			}
		}
	}
	return out
}

type recordingSession struct {
	transport.Session
	rc *recording
}

func (s *recordingSession) Do(ctx context.Context, owner int, req transport.Request) (transport.Response, error) {
	resp, err := s.Session.Do(ctx, owner, req)
	if err == nil {
		s.rc.log(owner, req, resp)
	}
	return resp, err
}

func (s *recordingSession) DoAll(ctx context.Context, calls []transport.Call) ([]transport.Response, error) {
	resps, err := s.Session.DoAll(ctx, calls)
	if err == nil {
		for i, c := range calls {
			s.rc.log(c.Owner, c.Req, resps[i])
		}
	}
	return resps, err
}

// TestBPA2MatchesSequentialSchedule: over seeded small databases of
// every family, the reordered BPA2Over returns exactly the Result of
// the sequential schedule apart from Net.Exchanges and Elapsed, every
// owner receives the same logical request sequence and gives the same
// answers, and a round costs at most m(m+1)/2 wire exchanges. The small
// lists make the database run out mid-round — the last item probed at
// an owner before the round's last live one, where the sequential
// schedule skips the remaining owners as exhausted — and the test
// requires that case to occur, with no probe ever answering Empty.
func TestBPA2MatchesSequentialSchedule(t *testing.T) {
	ctx := context.Background()
	var runs, midRound int
	for _, kind := range []gen.Kind{gen.Uniform, gen.Gaussian, gen.Correlated} {
		for _, n := range []int{1, 2, 3, 5, 8, 40} {
			for _, m := range []int{1, 2, 3, 4, 6} {
				for seed := int64(1); seed <= 2; seed++ {
					db := gen.MustGenerate(gen.Spec{Kind: kind, N: n, M: m, Alpha: 0.05, Seed: seed})
					for _, f := range []score.Func{score.Sum{}, score.Min{}, score.Max{}} {
						for k := 1; k <= n; k++ {
							name := fmt.Sprintf("%s/n=%d/m=%d/seed=%d/%T/k=%d", kind, n, m, seed, f, k)
							if checkSchedule(t, ctx, name, db, Options{K: k, Scoring: f}) {
								midRound++
							}
							runs++
						}
					}
				}
			}
		}
	}
	if midRound == 0 {
		t.Errorf("no run out of %d ran out of items mid-round", runs)
	}
	t.Logf("%d runs, %d ran out of items mid-round", runs, midRound)
}

// checkSchedule runs both schedules over fresh loopbacks and reports
// whether the sequential one skipped an exhausted owner mid-round.
func checkSchedule(t *testing.T, ctx context.Context, name string, db *list.Database, opts Options) bool {
	t.Helper()
	lb := func() *recording {
		l, err := transport.NewLoopback(db)
		if err != nil {
			t.Fatal(err)
		}
		return newRecording(l)
	}
	seqRec, newRec := lb(), lb()
	m := db.M()
	want, err := bpa2Sequential(ctx, seqRec, opts)
	if err != nil {
		t.Fatalf("%s: sequential: %v", name, err)
	}
	got, err := BPA2Over(ctx, newRec, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	perRound := int64(got.Net.Rounds * m * (m + 1) / 2)
	if got.Net.Exchanges > perRound || got.Net.Exchanges > want.Net.Exchanges {
		t.Errorf("%s: %d exchanges in %d rounds; want at most m(m+1)/2 per round (%d) and at most the sequential %d",
			name, got.Net.Exchanges, got.Net.Rounds, perRound, want.Net.Exchanges)
	}
	g, w := *got, *want
	g.Net.Exchanges, w.Net.Exchanges = 0, 0
	g.Elapsed, w.Elapsed = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: result differs from the sequential schedule:\n%+v\nvs\n%+v", name, g, w)
	}
	for i := range newRec.reqs {
		if !reflect.DeepEqual(newRec.reqs[i], seqRec.reqs[i]) {
			t.Fatalf("%s: owner %d received %v, sequential %v", name, i, newRec.reqs[i], seqRec.reqs[i])
		}
		if !reflect.DeepEqual(newRec.resps[i], seqRec.resps[i]) {
			t.Fatalf("%s: owner %d answered %v, sequential %v", name, i, newRec.resps[i], seqRec.resps[i])
		}
		for _, resp := range newRec.resps[i] {
			if pr, ok := resp.(transport.ProbeResp); ok && pr.Empty {
				t.Fatalf("%s: owner %d answered a probe Empty", name, i)
			}
		}
	}
	probes := seqRec.probes()
	for _, p := range probes {
		if p != probes[0] {
			return true
		}
	}
	return false
}
