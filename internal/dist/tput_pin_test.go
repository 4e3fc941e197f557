package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/transport"
)

// zerosAndTiesDB is TPUT's edge-case database: n=20,000 over m=4 lists
// whose scores take eight values in steps of 1/8, a third of them exact
// 0.0, and whose last list holds only 20 non-zero scores — so phase 1
// already reports zeros, phase 3 fetches them, and a 0 cell must count
// as known.
func zerosAndTiesDB(t testing.TB) *list.Database {
	t.Helper()
	const n, m = 20_000, 4
	rng := rand.New(rand.NewSource(29))
	cols := make([][]float64, m)
	for i := range cols {
		cols[i] = make([]float64, n)
		for d := range cols[i] {
			switch {
			case i == m-1 && d < 20:
				cols[i][d] = float64(1+rng.Intn(8)) * 0.125
			case i == m-1 || rng.Intn(3) == 0:
				cols[i][d] = 0
			default:
				cols[i][d] = float64(rng.Intn(8)) * 0.125
			}
		}
	}
	db, err := list.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// tputPin renders everything TPUT's cost model and answer consist of:
// the answers (count and a digest of items and score bits), Net, the
// access tally, the threshold's bits and the stop position.
func tputPin(res *Result) string {
	h := fnv.New64a()
	var b [12]byte
	for _, it := range res.Items {
		binary.LittleEndian.PutUint32(b[:4], uint32(it.Item))
		binary.LittleEndian.PutUint64(b[4:], math.Float64bits(it.Score))
		h.Write(b[:])
	}
	n := res.Net
	return fmt.Sprintf("items=%d/%016x net=%d/%d/%d/%d/%v acc=%d/%d/%d thr=%016x stop=%d",
		len(res.Items), h.Sum64(), n.Messages, n.Payload, n.Rounds, n.Exchanges, n.PerOwner,
		res.Accesses.Sorted, res.Accesses.Random, res.Accesses.Direct,
		math.Float64bits(res.Threshold), res.StopPosition)
}

// TestTPUTPinned holds TPUT and TPUT-A to the answers and accounting
// they produced before the originator's bookkeeping became a row-major
// table, bit for bit, for k in {1, 10, 50}: on a seeded uniform
// database (phase 2 resolves everything), a correlated one (phase 3
// fetches) and one full of exact zeros and ties.
func TestTPUTPinned(t *testing.T) {
	want := map[string]string{
		"correlated/tput-a/k=1":  "items=1/5ab756392cfa2e75 net=24/40/3/12/[6 6 6 6] acc=12/12/0 thr=4000000000000000 stop=3",
		"correlated/tput-a/k=10": "items=10/95317b528591fae9 net=24/168/3/12/[6 6 6 6] acc=48/40/0 thr=3fe6c6abfe8048ec stop=12",
		"correlated/tput-a/k=50": "items=50/5ef22402c7804c8c net=24/838/3/12/[6 6 6 6] acc=312/111/0 thr=3fcbdd3004349532 stop=78",
		"correlated/tput/k=1":    "items=1/5ab756392cfa2e75 net=24/40/3/12/[6 6 6 6] acc=12/12/0 thr=4000000000000000 stop=3",
		"correlated/tput/k=10":   "items=10/95317b528591fae9 net=24/168/3/12/[6 6 6 6] acc=48/40/0 thr=3fe6c6abfe8048ec stop=12",
		"correlated/tput/k=50":   "items=50/5ef22402c7804c8c net=24/838/3/12/[6 6 6 6] acc=312/111/0 thr=3fcbdd3004349532 stop=78",
		"uniform/tput-a/k=1":     "items=1/39cd1f17da04e57e net=16/120198/3/8/[4 4 4 4] acc=60103/0/0 thr=400e3132c1cde5de stop=15068",
		"uniform/tput-a/k=10":    "items=10/c5840605ba84cfe5 net=16/120200/3/8/[4 4 4 4] acc=60104/0/0 thr=400d7897f285ba74 stop=15068",
		"uniform/tput-a/k=50":    "items=50/30491b54206aed7e net=16/120228/3/8/[4 4 4 4] acc=60118/0/0 thr=400bf7304e9b134e stop=15070",
		"uniform/tput/k=1":       "items=1/39cd1f17da04e57e net=16/120198/3/8/[4 4 4 4] acc=60103/0/0 thr=400e3132c1cde5de stop=15068",
		"uniform/tput/k=10":      "items=10/c5840605ba84cfe5 net=16/120200/3/8/[4 4 4 4] acc=60104/0/0 thr=400d7897f285ba74 stop=15068",
		"uniform/tput/k=50":      "items=50/30491b54206aed7e net=16/120228/3/8/[4 4 4 4] acc=60118/0/0 thr=400bf7304e9b134e stop=15070",
		"zeros-ties/tput-a/k=1":  "items=1/90c79195ec909e15 net=18/60446/3/9/[4 4 4 6] acc=30119/108/0 thr=4005000000000000 stop=10075",
		"zeros-ties/tput-a/k=10": "items=10/5add3288e128005c net=18/60316/3/9/[4 4 4 6] acc=30119/43/0 thr=4005000000000000 stop=10075",
		"zeros-ties/tput-a/k=50": "items=50/285a01e858009d16 net=18/90094/3/9/[6 4 4 4] acc=45049/1/0 thr=4003000000000000 stop=20000",
		"zeros-ties/tput/k=1":    "items=1/90c79195ec909e15 net=18/60446/3/9/[4 4 4 6] acc=30119/108/0 thr=4005000000000000 stop=10075",
		"zeros-ties/tput/k=10":   "items=10/5add3288e128005c net=18/60316/3/9/[4 4 4 6] acc=30119/43/0 thr=4005000000000000 stop=10075",
		"zeros-ties/tput/k=50":   "items=50/285a01e858009d16 net=18/60736/3/9/[4 4 4 6] acc=30152/220/0 thr=4003000000000000 stop=10075",
	}
	dbs := map[string]*list.Database{
		"uniform":    gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 20_000, M: 4, Seed: 31}),
		"correlated": gen.MustGenerate(gen.Spec{Kind: gen.Correlated, N: 20_000, M: 4, Alpha: 0.5, Seed: 37}),
		"zeros-ties": zerosAndTiesDB(t),
	}
	algs := map[string]func(*list.Database, Options) (*Result, error){"tput": TPUT, "tput-a": TPUTA}
	for dbName, db := range dbs {
		for algName, run := range algs {
			for _, k := range []int{1, 10, 50} {
				name := fmt.Sprintf("%s/%s/k=%d", dbName, algName, k)
				res, err := run(db, Options{K: k, Scoring: score.Sum{}})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := tputPin(res); got != want[name] {
					t.Errorf("%q: %q, want %q", name, got, want[name])
				}
			}
		}
	}
}

// tamper wraps a Transport so that every response from one owner passes
// through edit before the originator sees it: a misbehaving owner.
type tamper struct {
	transport.Transport
	owner int
	edit  func(transport.Response) transport.Response
}

func (tp *tamper) Open(ctx context.Context, tracker bestpos.Kind) (transport.Session, error) {
	s, err := tp.Transport.Open(ctx, tracker)
	if err != nil {
		return nil, err
	}
	return &tamperSession{Session: s, tp: tp}, nil
}

type tamperSession struct {
	transport.Session
	tp *tamper
}

func (s *tamperSession) Do(ctx context.Context, owner int, req transport.Request) (transport.Response, error) {
	resp, err := s.Session.Do(ctx, owner, req)
	if err == nil && owner == s.tp.owner {
		resp = s.tp.edit(resp)
	}
	return resp, err
}

func (s *tamperSession) DoAll(ctx context.Context, calls []transport.Call) ([]transport.Response, error) {
	resps, err := s.Session.DoAll(ctx, calls)
	if err == nil {
		for j, c := range calls {
			if c.Owner == s.tp.owner {
				resps[j] = s.tp.edit(resps[j])
			}
		}
	}
	return resps, err
}

// TestTPUTBadOwnerData: an owner that reports an item outside [0,n) or a
// score TPUT's precondition rules out (negative, NaN, +Inf) fails the
// query with a dist error naming that owner — never a panic, and never a
// score silently read as unknown. Every phase is tampered in turn.
func TestTPUTBadOwnerData(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Correlated, N: 2_000, M: 4, Alpha: 0.5, Seed: 37})
	const bad = 2
	entries := func(f func(list.Entry) list.Entry) func(transport.Response) transport.Response {
		return func(resp transport.Response) transport.Response {
			switch r := resp.(type) {
			case transport.TopKResp:
				r.Entries = append([]list.Entry(nil), r.Entries...)
				r.Entries[len(r.Entries)-1] = f(r.Entries[len(r.Entries)-1])
				return r
			}
			return resp
		}
	}
	above := func(f func(list.Entry) list.Entry) func(transport.Response) transport.Response {
		return func(resp transport.Response) transport.Response {
			if r, ok := resp.(transport.AboveResp); ok {
				r.Entries = append(append([]list.Entry(nil), r.Entries...), f(list.Entry{Item: 0, Score: 0}))
				return r
			}
			return resp
		}
	}
	fetch := func(s float64) func(transport.Response) transport.Response {
		return func(resp transport.Response) transport.Response {
			if r, ok := resp.(transport.FetchResp); ok && len(r.Scores) > 0 {
				r.Scores = append([]float64(nil), r.Scores...)
				r.Scores[0] = s
				return r
			}
			return resp
		}
	}
	item := func(d list.ItemID) func(list.Entry) list.Entry {
		return func(e list.Entry) list.Entry { e.Item = d; return e }
	}
	scored := func(s float64) func(list.Entry) list.Entry {
		return func(e list.Entry) list.Entry { e.Score = s; return e }
	}
	cases := map[string]func(transport.Response) transport.Response{
		"phase1/item-n":       entries(item(list.ItemID(db.N()))),
		"phase1/item-neg":     entries(item(-1)),
		"phase1/score-neg":    entries(scored(-0.5)),
		"phase1/score-nan":    entries(scored(math.NaN())),
		"phase2/item-huge":    above(item(1 << 30)),
		"phase2/score-inf":    above(scored(math.Inf(1))),
		"phase2/score-unkn":   above(scored(-1)),
		"phase3/score-neg":    fetch(-1),
		"phase3/score-nan":    fetch(math.NaN()),
		"phase3/score-inf":    fetch(math.Inf(1)),
		"phase3/score-neginf": fetch(math.Inf(-1)),
	}
	for name, edit := range cases {
		for algName, run := range map[string]func(context.Context, transport.Transport, Options) (*Result, error){"tput": TPUTOver, "tput-a": TPUTAOver} {
			t.Run(name+"/"+algName, func(t *testing.T) {
				lb, err := transport.NewLoopback(db)
				if err != nil {
					t.Fatal(err)
				}
				defer lb.Close()
				_, err = run(context.Background(), &tamper{Transport: lb, owner: bad, edit: edit}, Options{K: 10, Scoring: score.Sum{}})
				if err == nil {
					t.Fatal("tampered owner data accepted")
				}
				if msg := err.Error(); !strings.HasPrefix(msg, "dist: ") || !strings.Contains(msg, fmt.Sprintf("owner %d", bad)) {
					t.Fatalf("error %q does not name owner %d as a dist error", msg, bad)
				}
			})
		}
	}
}
