package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/transport"
)

// tputRunTable is the reference TPUT originator tputRun must match
// request for request and bit for bit. It keeps what it learns in one
// column-major table of n·m scores — cell i·n+d is item d's score in
// list i, or unknownScore until an owner reports it — beside a per-item
// sum acc of the known scores, and bounds every partly known item with
// its exact list-order sum.
func tputRunTable(ctx context.Context, t transport.Transport, opts Options, rule thresholdRule) (*Result, error) {
	r, err := newRunner(ctx, t, opts)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if _, ok := opts.Scoring.(score.Sum); !ok {
		return nil, fmt.Errorf("dist: TPUT requires Sum scoring, got %q", opts.Scoring.Name())
	}
	m, n, k := r.m, r.n, opts.K

	// Originator bookkeeping: the column-major score table, the
	// known-score sum per item, and the items phase 1 reported.
	cells := make([]float64, n*m)
	for c := range cells {
		cells[c] = unknownScore
	}
	acc := make([]float64, n)
	var phase1 []list.ItemID
	// sum combines item d's known scores in list order with fill[i]
	// substituted for the unknown ones — fill 0 gives the partial-sum
	// lower bound, the phase-2 thresholds the phase-3 upper bound — and
	// counts the unknown ones.
	sum := func(d list.ItemID, fill []float64) (t float64, unknown int) {
		for i, c := 0, int(d); i < m; i, c = i+1, c+n {
			v := cells[c]
			if v == unknownScore {
				v = fill[i]
				unknown++
			}
			t += v
		}
		return t, unknown
	}
	zeros := make([]float64, m)
	seen := func(d list.ItemID) bool {
		_, unknown := sum(d, zeros)
		return unknown < m
	}
	resum := func(items []list.ItemID) {
		for _, d := range items {
			acc[d], _ = sum(d, zeros)
		}
	}

	// Phase 1: top-k fetch. boundary[i] is owner i's k-th prefix score,
	// the information the adaptive threshold split feeds on.
	r.nw.net.Rounds++
	boundary := make([]float64, m)
	topkCalls := make([]transport.Call, m)
	for i := range topkCalls {
		topkCalls[i] = transport.Call{Owner: i, Req: transport.TopKReq{K: k}}
	}
	topkResps, err := r.doAll(topkCalls)
	if err != nil {
		return nil, err
	}
	for i, resp := range topkResps {
		tr, err := as[transport.TopKResp](resp)
		if err != nil {
			return nil, err
		}
		if len(tr.Entries) != k {
			return nil, fmt.Errorf("dist: owner %d returned %d phase-1 entries, want %d", i, len(tr.Entries), k)
		}
		col := cells[i*n : i*n+n]
		for _, e := range tr.Entries {
			if err := checkEntry(i, n, e); err != nil {
				return nil, err
			}
			if c := &col[e.Item]; *c == unknownScore {
				if !seen(e.Item) {
					phase1 = append(phase1, e.Item)
				}
				*c = e.Score
			}
		}
		boundary[i] = tr.Entries[k-1].Score
	}
	resum(phase1)
	tau1 := newKth(k)
	for _, d := range phase1 {
		tau1.push(acc[d])
	}
	T := rule(tau1.value(), boundary)

	// Phase 2: threshold scan, one threshold per list, folded into acc
	// in list order as the responses are read.
	r.nw.net.Rounds++
	aboveCalls := make([]transport.Call, m)
	for i := range aboveCalls {
		aboveCalls[i] = transport.Call{Owner: i, Req: transport.AboveReq{T: T[i]}}
	}
	aboveResps, err := r.doAll(aboveCalls)
	if err != nil {
		return nil, err
	}
	for i, resp := range aboveResps {
		ar, err := as[transport.AboveResp](resp)
		if err != nil {
			return nil, err
		}
		col := cells[i*n : i*n+n]
		for _, e := range ar.Entries {
			if err := checkEntry(i, n, e); err != nil {
				return nil, err
			}
			if c := &col[e.Item]; *c == unknownScore {
				*c = e.Score
				acc[e.Item] += e.Score
			}
		}
	}
	resum(phase1)
	kth := newKth(k)
	for d, v := range acc {
		if kth.admits(v) && seen(list.ItemID(d)) {
			kth.push(v)
		}
	}
	tau2 := kth.value()

	// Phase 3: resolve the candidates exactly. An unknown score in list i
	// is < T[i] after phase 2, so sum + per-list thresholds bounds an
	// item from above. One sweep in item order ranks the items already
	// resolved and lists the candidates in ascending item order. Every
	// true top-k item is resolved here or in the fetch: the unresolved
	// ones are bounded strictly below τ2 while at least k resolved items
	// reach it, so no item below τ2 can enter the answer.
	r.nw.net.Rounds++
	missing := make([][]list.ItemID, m)
	var fetched []list.ItemID
	for d := range list.ItemID(n) {
		ub, unknown := sum(d, T)
		switch {
		case unknown == 0:
			if acc[d] >= tau2 {
				r.y.Add(d, acc[d])
			}
		case unknown < m && ub >= tau2:
			fetched = append(fetched, d)
			for i := 0; i < m; i++ {
				if cells[i*n+int(d)] == unknownScore {
					missing[i] = append(missing[i], d)
				}
			}
		}
	}
	fetchCalls := make([]transport.Call, 0, m)
	for i := 0; i < m; i++ {
		if len(missing[i]) == 0 {
			continue
		}
		fetchCalls = append(fetchCalls, transport.Call{Owner: i, Req: transport.FetchReq{Items: missing[i]}})
	}
	fetchResps, err := r.doAll(fetchCalls)
	if err != nil {
		return nil, err
	}
	for c, resp := range fetchResps {
		i := fetchCalls[c].Owner
		fr, err := as[transport.FetchResp](resp)
		if err != nil {
			return nil, err
		}
		if len(fr.Scores) != len(missing[i]) {
			return nil, fmt.Errorf("dist: owner %d returned %d scores for %d items", i, len(fr.Scores), len(missing[i]))
		}
		for j, d := range missing[i] {
			if err := checkScore(i, d, fr.Scores[j]); err != nil {
				return nil, err
			}
			cells[i*n+int(d)] = fr.Scores[j]
		}
	}
	resum(fetched)
	for _, d := range fetched {
		if acc[d] >= tau2 {
			r.y.Add(d, acc[d])
		}
	}
	res := &Result{Threshold: tau2}
	sts, err := r.stats()
	if err != nil {
		return nil, err
	}
	for _, st := range sts {
		res.StopPosition = max(res.StopPosition, st.Depth)
	}
	return r.assemble(res, sts), nil
}

// fetchLog wraps a Transport and records the item list of every phase-3
// FetchReq its sessions send, per owner, in the order sent.
type fetchLog struct {
	transport.Transport
	fetches map[int][][]list.ItemID
}

func (fl *fetchLog) Open(ctx context.Context, tracker bestpos.Kind) (transport.Session, error) {
	s, err := fl.Transport.Open(ctx, tracker)
	if err != nil {
		return nil, err
	}
	return &fetchLogSession{Session: s, fl: fl}, nil
}

type fetchLogSession struct {
	transport.Session
	fl *fetchLog
}

func (s *fetchLogSession) DoAll(ctx context.Context, calls []transport.Call) ([]transport.Response, error) {
	for _, c := range calls {
		if fr, ok := c.Req.(transport.FetchReq); ok {
			s.fl.fetches[c.Owner] = append(s.fl.fetches[c.Owner], slices.Clone(fr.Items))
		}
	}
	return s.Session.DoAll(ctx, calls)
}

// runLogged runs one TPUT originator over a fresh Loopback of db and
// returns its result and the fetches it sent.
func runLogged(t *testing.T, db *list.Database, opts Options, rule thresholdRule,
	run func(context.Context, transport.Transport, Options, thresholdRule) (*Result, error)) (*Result, map[int][][]list.ItemID) {
	t.Helper()
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	fl := &fetchLog{Transport: lb, fetches: map[int][][]list.ItemID{}}
	res, err := run(context.Background(), fl, opts, rule)
	if err != nil {
		t.Fatal(err)
	}
	return res, fl.fetches
}

// tiedDB is a seeded database whose scores take only four values, so
// most sums tie and many items sit exactly on a bound.
func tiedDB(t testing.TB, n, m int, seed int64) *list.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]float64, m)
	for i := range cols {
		cols[i] = make([]float64, n)
		for d := range cols[i] {
			cols[i][d] = float64(rng.Intn(4)) * 0.25
		}
	}
	db, err := list.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTPUTOriginatorMatchesTable holds the bit-plane originator to the
// full-table one it replaced, over Loopback, for TPUT and TPUT-A on
// uniform, correlated, half-Gaussian and tie-heavy databases with
// m in {2, 3, 8, 65} and k in {1, 10, 50}: the same answers, threshold
// and stop position, the same Net, and the same phase-3 fetch lists.
func TestTPUTOriginatorMatchesTable(t *testing.T) {
	const n = 3_000
	rules := map[string]thresholdRule{"tput": uniformThresholds, "tput-a": adaptiveThresholds}
	fetched := 0
	for _, m := range []int{2, 3, 8, 65} {
		seed := int64(100 + m)
		dbs := map[string]*list.Database{
			"uniform":    gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: n, M: m, Seed: seed}),
			"correlated": gen.MustGenerate(gen.Spec{Kind: gen.Correlated, N: n, M: m, Alpha: 0.5, Seed: seed}),
			"gaussian":   halfGaussianDB(t, n, m, seed),
			"tied":       tiedDB(t, n, m, seed),
		}
		for dbName, db := range dbs {
			for ruleName, rule := range rules {
				for _, k := range []int{1, 10, 50} {
					name := fmt.Sprintf("%s/m=%d/%s/k=%d", dbName, m, ruleName, k)
					opts := Options{K: k, Scoring: score.Sum{}}
					want, wantFetch := runLogged(t, db, opts, rule, tputRunTable)
					got, gotFetch := runLogged(t, db, opts, rule, tputRun)
					if g, w := tputPin(got), tputPin(want); g != w {
						t.Errorf("%s: %s, table originator %s", name, g, w)
					}
					if !reflect.DeepEqual(got.Items, want.Items) {
						t.Errorf("%s: items %v, table originator %v", name, got.Items, want.Items)
					}
					if !reflect.DeepEqual(gotFetch, wantFetch) {
						t.Errorf("%s: fetched %v, table originator %v", name, gotFetch, wantFetch)
					}
					for _, f := range wantFetch {
						fetched += len(f)
					}
				}
			}
		}
	}
	if fetched == 0 {
		t.Fatal("no run reached phase 3: the fetch lists were never compared")
	}
}

// TestTPUTBoundMargin: the sweep drops a partly known item on its
// reordered bound only with the rounding margin to spare. Item x scores
// a and c in lists 0 and 2 and is unknown in list 1 (threshold t), so
// its exact list-order bound is (a+t)+c while the sweep sums (a+c)+t,
// one ulp lower. Item y, known everywhere, sums exactly to (a+t)+c, so
// τ2 = (a+t)+c = x's bound: x must be fetched, as the full table would.
func TestTPUTBoundMargin(t *testing.T) {
	// Variables, not constants: Go folds constant expressions exactly.
	a, c, tx := 0.425, 0.311, 0.215
	ub, reordered := (a+tx)+c, (a+c)+tx
	if reordered != math.Nextafter(ub, math.Inf(-1)) {
		t.Fatalf("(a+c)+t = %v is not one ulp below (a+t)+c = %v", reordered, ub)
	}
	y0, y1, y2 := ub-0.625, 0.25, 0.375
	if (y0+y1)+y2 != ub {
		t.Fatalf("y sums to %v, want %v", (y0+y1)+y2, ub)
	}
	// Items y = 0 and x = 1, then fillers below every threshold.
	const n = 8
	cols := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	for i := range cols {
		for d := 2; d < n; d++ {
			cols[i][d] = 0.001 * float64(d)
		}
	}
	cols[0][0], cols[1][0], cols[2][0] = y0, y1, y2
	cols[0][1], cols[1][1], cols[2][1] = a, 0.1, c
	db, err := list.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	// Σ T = t + 0.02 stays below τ1, so the split is a valid rule.
	rule := func(tau1 float64, boundary []float64) []float64 { return []float64{0.01, tx, 0.01} }
	opts := Options{K: 1, Scoring: score.Sum{}}
	want, wantFetch := runLogged(t, db, opts, rule, tputRunTable)
	got, gotFetch := runLogged(t, db, opts, rule, tputRun)
	if math.Float64bits(want.Threshold) != math.Float64bits(ub) {
		t.Fatalf("table originator τ2 = %v, want %v", want.Threshold, ub)
	}
	if w := map[int][][]list.ItemID{1: {{1}}}; !reflect.DeepEqual(wantFetch, w) {
		t.Fatalf("table originator fetched %v, want %v", wantFetch, w)
	}
	if !reflect.DeepEqual(gotFetch, wantFetch) {
		t.Errorf("fetched %v, want %v: an item whose exact bound reaches τ2 was dropped", gotFetch, wantFetch)
	}
	if g, w := tputPin(got), tputPin(want); g != w {
		t.Errorf("%s, table originator %s", g, w)
	}
}
