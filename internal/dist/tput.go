package dist

import (
	"context"
	"fmt"
	"math"
	"slices"

	"topk/internal/list"
	"topk/internal/score"
	"topk/internal/transport"
)

// TPUT runs the Three Phase Uniform Threshold algorithm over the
// deterministic in-process transport; see TPUTOver.
func TPUT(db *list.Database, opts Options) (*Result, error) {
	t, err := loopback(db)
	if err != nil {
		return nil, err
	}
	return TPUTOver(context.Background(), t, opts)
}

// TPUTOver runs the Three Phase Uniform Threshold algorithm of Cao &
// Wang (PODC 2004), the fixed-round-trip baseline: where TA/BPA/BPA2 pay
// one exchange per access, TPUT pays at most three exchanges per owner,
// each carrying a batch (phase 3 skips owners with nothing to resolve).
// Every phase is one fan-out a concurrent backend delivers to all owners
// at once — one message per owner per phase, so TPUT is already maximally
// round-coalesced — and TPUT's wall-clock is three round-trips, the
// design point the per-access protocols trade message volume against.
//
//  1. The originator fetches every owner's top k entries and computes
//     τ1, the k-th highest partial sum (missing scores taken as 0).
//  2. It broadcasts the uniform threshold T = τ1/m; every owner answers
//     with all further entries scoring at least T. Any item not
//     reported anywhere now has overall score strictly below m·T = τ1,
//     so the refreshed k-th partial sum τ2 prunes to the candidates:
//     seen items whose upper bound (unknown scores bounded by T) still
//     reaches τ2.
//  3. The originator fetches the candidates' missing scores and ranks
//     them exactly.
//
// Both the missing-scores-are-0 lower bound and the uniform split of τ1
// across lists assume f = Σ si over non-negative scores, so TPUT rejects
// other scoring functions, and its owners refuse phase 1 and 2 over a
// list holding a negative score (transport.ErrNegativeScore).
func TPUTOver(ctx context.Context, t transport.Transport, opts Options) (*Result, error) {
	return tputRun(ctx, t, opts, uniformThresholds)
}

// thresholdRule splits the phase-one bound tau1 into the per-list
// phase-2 thresholds T[i]. Correctness requires sum(T) <= tau1 (an item
// unreported by owner i scores below T[i] there, so an item unseen
// everywhere scores below sum(T) <= tau1 <= tau2 and cannot enter the
// answer); within that, a rule is free to shape the split using the
// phase-1 boundary scores c[i] (owner i's k-th prefix score).
type thresholdRule func(tau1 float64, boundary []float64) []float64

// uniformThresholds is TPUT's split: tau1/m everywhere.
func uniformThresholds(tau1 float64, boundary []float64) []float64 {
	T := make([]float64, len(boundary))
	for i := range T {
		T[i] = tau1 / float64(len(boundary))
	}
	return T
}

// tputRun is the three-phase skeleton shared by TPUT and TPUTA; only the
// phase-2 threshold split differs.
//
// The originator keeps what it learns in one column-major table of n·m
// scores — cell i·n+d is item d's score in list i, or unknownScore until
// an owner reports it — beside a per-item sum acc of the known scores.
// Each list's entries scatter into that list's own column and into acc,
// nothing else. The sums must equal Sum.Combine over the
// list-ordered locals bit for bit (the centralized oracle's arithmetic),
// and Combine starts at +0 where a skipped unknown adds +0, so:
//
//   - phase-2 entries are folded into acc as they arrive — responses are
//     handled in list order, so an item first reported in phase 2 is
//     summed in list order with no further work;
//   - the at most m·k items phase 1 reported, whose sums would otherwise
//     start with a later list's phase-1 score, are re-summed from their
//     cells in list order after phase 2, and the phase-3 fetched items
//     after phase 3.
//
// τ1 ranks the phase-1 items only and τ2 is one pass over acc. One
// sweep of the table in item order (m sequential column streams) then
// counts each item's known cells and bounds it: fully known items reach
// the answer set, partly known ones within reach of τ2 are the phase-3
// candidates. No other pass reads the whole table. Owner data is
// checked before it enters the table: every phase-1/2 entry needs an
// item in [0,n), and every reported score must be finite and
// non-negative — the precondition TPUT's bounds rest on, and what keeps
// a reported score from reading as unknown. A violation fails the query
// with an error naming the owner.
func tputRun(ctx context.Context, t transport.Transport, opts Options, rule thresholdRule) (*Result, error) {
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

// kthLargest tracks the k-th largest of the values pushed into it: a
// k-sized min-heap of scores. Ties do not change the value, so it is
// the threshold a rank.Set of the same scores would report.
type kthLargest struct {
	k int
	h []float64
}

func newKth(k int) *kthLargest { return &kthLargest{k: k, h: make([]float64, 0, k)} }

// admits reports whether pushing v could change the k-th largest value.
func (q *kthLargest) admits(v float64) bool { return len(q.h) < q.k || v > q.h[0] }

func (q *kthLargest) push(v float64) {
	if len(q.h) < q.k {
		q.h = append(q.h, v)
		if len(q.h) == q.k {
			slices.Sort(q.h) // ascending order is a valid min-heap
		}
		return
	}
	if v <= q.h[0] {
		return
	}
	q.h[0] = v
	for j := 0; ; {
		c := 2*j + 1
		if c >= len(q.h) {
			return
		}
		if c+1 < len(q.h) && q.h[c+1] < q.h[c] {
			c++
		}
		if q.h[j] <= q.h[c] {
			return
		}
		q.h[j], q.h[c] = q.h[c], q.h[j]
		j = c
	}
}

// value returns the k-th largest value pushed, or -Inf before k values
// have been.
func (q *kthLargest) value() float64 {
	if len(q.h) < q.k {
		return math.Inf(-1)
	}
	return q.h[0]
}

// unknownScore marks a cell of TPUT's score table no owner has reported:
// checkScore admits only non-negative scores, so no real score equals it.
const unknownScore = -1.0

// checkEntry rejects a phase-1/2 entry owner i reported whose item lies
// outside [0,n) or whose score checkScore rejects. A repeated report of
// a known cell passes and is ignored by the caller.
func checkEntry(i, n int, e list.Entry) error {
	if e.Item < 0 || int(e.Item) >= n {
		return fmt.Errorf("dist: owner %d returned item %d outside [0,%d)", i, e.Item, n)
	}
	return checkScore(i, e.Item, e.Score)
}

// checkScore rejects a score owner i reported for item d that TPUT's
// non-negative-score precondition rules out.
func checkScore(i int, d list.ItemID, s float64) error {
	if !(s >= 0) || math.IsInf(s, 1) {
		return fmt.Errorf("dist: owner %d returned score %v for item %d, want a finite non-negative score", i, s, d)
	}
	return nil
}
