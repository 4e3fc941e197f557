package dist

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"topk/internal/bestpos"
	"topk/internal/core"
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

// halfGaussianDB is a seeded database of |N(0,1)| scores: TPUT needs
// non-negative scores, and full-mantissa values spread over several
// binades make a sum's float order show in its low bits.
func halfGaussianDB(t testing.TB, n, m int, seed int64) *list.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, m)
	for i := range cols {
		cols[i] = make([]float64, n)
		for d := range cols[i] {
			cols[i][d] = math.Abs(rng.NormFloat64())
		}
	}
	db, err := list.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTPUTPinned holds TPUT and TPUT-A to the answers and accounting
// recorded from earlier originator bookkeeping, bit for bit, for k in
// {1, 10, 50}: on seeded uniform databases over m = 2, 4 and 8 lists
// (phase 2 resolves everything), a half-Gaussian one, a correlated one
// (phase 3 fetches) and one full of exact zeros and ties. The first
// pins date from before the score table became row-major; the m = 2,
// m = 8 and half-Gaussian pins from before it became column-major with
// per-item sums folded in list order.
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
		"gaussian/tput-a/k=1":    "items=1/c66156ef8b9545c8 net=18/34216/3/9/[4 6 4 4] acc=17111/1/0 thr=40225073c140ee80 stop=4336",
		"gaussian/tput-a/k=10":   "items=10/01ce2c3e8ac893c0 net=24/55400/3/12/[6 6 6 6] acc=27686/18/0 thr=401f38e56d8af9c4 stop=7002",
		"gaussian/tput-a/k=50":   "items=50/7faaf7c042b952fa net=24/62708/3/12/[6 6 6 6] acc=31276/82/0 thr=401c89d4e39ce766 stop=7878",
		"gaussian/tput/k=1":      "items=1/c66156ef8b9545c8 net=18/34216/3/9/[4 6 4 4] acc=17111/1/0 thr=40225073c140ee80 stop=4336",
		"gaussian/tput/k=10":     "items=10/01ce2c3e8ac893c0 net=24/55400/3/12/[6 6 6 6] acc=27686/18/0 thr=401f38e56d8af9c4 stop=7002",
		"gaussian/tput/k=50":     "items=50/7faaf7c042b952fa net=24/62708/3/12/[6 6 6 6] acc=31276/82/0 thr=401c89d4e39ce766 stop=7878",
		"uniform-m2/tput-a/k=1":  "items=1/41c3808cce52f0df net=8/40244/3/4/[4 4] acc=20124/0/0 thr=3fffeda0e49adf02 stop=10126",
		"uniform-m2/tput-a/k=10": "items=10/728d9bf409c49feb net=8/40254/3/4/[4 4] acc=20129/0/0 thr=3fff72f8499ba398 stop=10128",
		"uniform-m2/tput-a/k=50": "items=50/3f85383355a7f413 net=8/40306/3/4/[4 4] acc=20155/0/0 thr=3ffecda3b09af6da stop=10142",
		"uniform-m2/tput/k=1":    "items=1/41c3808cce52f0df net=8/40244/3/4/[4 4] acc=20124/0/0 thr=3fffeda0e49adf02 stop=10126",
		"uniform-m2/tput/k=10":   "items=10/728d9bf409c49feb net=8/40254/3/4/[4 4] acc=20129/0/0 thr=3fff72f8499ba398 stop=10128",
		"uniform-m2/tput/k=50":   "items=50/3f85383355a7f413 net=8/40306/3/4/[4 4] acc=20155/0/0 thr=3ffecda3b09af6da stop=10142",
		"uniform-m8/tput-a/k=1":  "items=1/cd5cfdfeedf8da32 net=32/280180/3/16/[4 4 4 4 4 4 4 4] acc=140098/0/0 thr=401b6506522ce2ac stop=17570",
		"uniform-m8/tput-a/k=10": "items=10/5166b2b0f743a3a4 net=32/280184/3/16/[4 4 4 4 4 4 4 4] acc=140100/0/0 thr=401a0696098b563e stop=17570",
		"uniform-m8/tput-a/k=50": "items=50/802012bc17b55d17 net=36/280202/3/18/[4 4 4 6 6 4 4 4] acc=140107/2/0 thr=4018b6bccf7982c0 stop=17572",
		"uniform-m8/tput/k=1":    "items=1/cd5cfdfeedf8da32 net=32/280180/3/16/[4 4 4 4 4 4 4 4] acc=140098/0/0 thr=401b6506522ce2ac stop=17570",
		"uniform-m8/tput/k=10":   "items=10/5166b2b0f743a3a4 net=32/280184/3/16/[4 4 4 4 4 4 4 4] acc=140100/0/0 thr=401a0696098b563e stop=17570",
		"uniform-m8/tput/k=50":   "items=50/802012bc17b55d17 net=36/280202/3/18/[4 4 4 6 6 4 4 4] acc=140107/2/0 thr=4018b6bccf7982c0 stop=17572",
	}
	dbs := map[string]*list.Database{
		"uniform":    gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 20_000, M: 4, Seed: 31}),
		"correlated": gen.MustGenerate(gen.Spec{Kind: gen.Correlated, N: 20_000, M: 4, Alpha: 0.5, Seed: 37}),
		"zeros-ties": zerosAndTiesDB(t),
		"uniform-m2": gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 20_000, M: 2, Seed: 41}),
		"uniform-m8": gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 20_000, M: 8, Seed: 43}),
		"gaussian":   halfGaussianDB(t, 20_000, 4, 47),
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

// TestTPUTSumsInListOrder: an answer item that phase 1 reports from a
// later list and phase 2 from the earlier ones must still be summed in
// list order. Item 0 scores a, b, c in lists 0, 1, 2. It tops list 2,
// so phase 1 reports it there; lists 0 and 1 top it with items 1 and 2
// (0.9 each), so τ1 = 0.9 and both report item 0 only in the phase-2
// scan above T = 0.3. Its scores are chosen so that (a+b)+c, the
// list-order sum, differs from the arrival-order (c+a)+b in float64.
func TestTPUTSumsInListOrder(t *testing.T) {
	// Variables, not constants: Go folds constant expressions exactly.
	a, b, c := 0.58, 0.65, 0.51
	if x, y := (a+b)+c, a+(b+c); x == y {
		t.Fatalf("(a+b)+c == a+(b+c) == %v: the scores do not expose float order", x)
	}
	inListOrder := score.Sum{}.Combine([]float64{a, b, c})
	if arrival := (c + a) + b; arrival == inListOrder {
		t.Fatalf("arrival-order sum equals the list-order one: %v", arrival)
	}
	db, err := list.FromColumns([][]float64{
		{a, 0.9, 0.1, 0.05, 0.04, 0.03},
		{b, 0.1, 0.9, 0.05, 0.04, 0.03},
		{c, 0.2, 0.2, 0.05, 0.04, 0.03},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(core.AlgNaive, db, core.Options{K: 1, Scoring: score.Sum{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Items) != 1 || want.Items[0].Item != 0 || math.Float64bits(want.Items[0].Score) != math.Float64bits(inListOrder) {
		t.Fatalf("oracle answers %+v, want item 0 scoring %v", want.Items, inListOrder)
	}
	for name, run := range map[string]func(*list.Database, Options) (*Result, error){"tput": TPUT, "tput-a": TPUTA} {
		res, err := run(db, Options{K: 1, Scoring: score.Sum{}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Net.PerOwner[0] != 4 || res.Net.PerOwner[1] != 4 {
			t.Fatalf("%s: lists 0 and 1 exchanged %v messages, want 4 each (no phase-3 fetch)", name, res.Net.PerOwner)
		}
		if len(res.Items) != 1 || res.Items[0].Item != 0 ||
			math.Float64bits(res.Items[0].Score) != math.Float64bits(inListOrder) {
			t.Errorf("%s answers %+v, want item 0 scoring %v (list order), not %v (arrival order)",
				name, res.Items, inListOrder, (c+a)+b)
		}
	}
}

// TestTPUTStatsRequestsPerQuery counts the GET /stats round trips one
// TPUT query makes over an HTTP cluster: none. The owners check the
// non-negativity precondition themselves, and the accesses and depths
// come from the exchanges' receipts, so /stats serves only the dial
// handshake.
func TestTPUTStatsRequestsPerQuery(t *testing.T) {
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: 2_000, M: 4, Seed: 9})
	var stats atomic.Int64
	urls := make([]string, db.M())
	for i := range urls {
		srv, err := transport.NewServer(db, i)
		if err != nil {
			t.Fatal(err)
		}
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/stats" {
				stats.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	hc, err := transport.DialOwners(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hc.Close() })
	if got, want := stats.Load(), int64(db.M()); got != want {
		t.Fatalf("dial handshake made %d GET /stats, want %d", got, want)
	}
	for name, run := range map[string]func(context.Context, transport.Transport, Options) (*Result, error){"tput": TPUTOver, "tput-a": TPUTAOver} {
		before := stats.Load()
		res, err := run(context.Background(), hc, Options{K: 10, Scoring: score.Sum{}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := stats.Load() - before; got != 0 {
			t.Errorf("%s: %d GET /stats per query, want 0", name, got)
		}
		if res.Accesses.Total() == 0 {
			t.Errorf("%s: no accesses reported without /stats", name)
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

	// A repeated report is no error: the first report of a cell wins and
	// later ones are ignored, so the answer is the untampered one. The
	// repeats carry other scores, so a later report taking over shows.
	var top list.Entry // the bad owner's phase-1 top entry in this run
	var repeated bool  // whether this run's edit added a repeat
	repeats := map[string]func(transport.Response) transport.Response{
		"phase2/repeat": func(resp transport.Response) transport.Response {
			if r, ok := resp.(transport.AboveResp); ok && len(r.Entries) > 0 {
				r.Entries = append(append([]list.Entry(nil), r.Entries...), r.Entries[0])
				repeated = true
				return r
			}
			return resp
		},
		"phase2/repeat-rescored": func(resp transport.Response) transport.Response {
			if r, ok := resp.(transport.AboveResp); ok && len(r.Entries) > 0 {
				e := r.Entries[0]
				e.Score *= 2
				r.Entries = append(append([]list.Entry(nil), r.Entries...), e)
				repeated = true
				return r
			}
			return resp
		},
		"phase2/repeat-phase1": func(resp transport.Response) transport.Response {
			switch r := resp.(type) {
			case transport.TopKResp:
				top = r.Entries[0]
			case transport.AboveResp:
				r.Entries = append(append([]list.Entry(nil), r.Entries...), list.Entry{Item: top.Item, Score: top.Score / 2})
				repeated = true
				return r
			}
			return resp
		},
	}
	for name, edit := range repeats {
		for algName, run := range map[string]func(context.Context, transport.Transport, Options) (*Result, error){"tput": TPUTOver, "tput-a": TPUTAOver} {
			t.Run(name+"/"+algName, func(t *testing.T) {
				lb, err := transport.NewLoopback(db)
				if err != nil {
					t.Fatal(err)
				}
				defer lb.Close()
				opts := Options{K: 10, Scoring: score.Sum{}}
				want, err := run(context.Background(), lb, opts)
				if err != nil {
					t.Fatal(err)
				}
				repeated = false
				got, err := run(context.Background(), &tamper{Transport: lb, owner: bad, edit: edit}, opts)
				if err != nil {
					t.Fatalf("repeated report refused: %v", err)
				}
				if !repeated {
					t.Fatal("the tampered run sent no repeat")
				}
				if !reflect.DeepEqual(got.Items, want.Items) || math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold) {
					t.Fatalf("answers %v (threshold %v), untampered %v (threshold %v)", got.Items, got.Threshold, want.Items, want.Threshold)
				}
			})
		}
	}
}
