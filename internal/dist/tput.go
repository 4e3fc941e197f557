package dist

import (
	"context"
	"fmt"
	"math"

	"topk/internal/list"
	"topk/internal/rank"
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
// other scoring functions and databases with negative local scores.
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
// The originator keeps what it learns in one row-major table of n·m
// scores: cell d·m+i is item d's score in list i, or unknownScore until
// an owner reports it, plus a per-item count of known cells. Bounding an
// item reads one contiguous row, and every pass over the seen items
// sweeps the table in item order, so the passes read it sequentially
// (a seen item is one with a known cell). Owner data is checked before it enters
// the table: every phase-1/2 entry needs an item in [0,n), and every
// reported score must be finite and non-negative — the precondition
// TPUT's bounds rest on, and what keeps a reported score from reading as
// unknown. A violation fails the query with an error naming the owner.
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
	sts, err := r.stats()
	if err != nil {
		return nil, err
	}
	for i, st := range sts {
		// The list minimum is owner metadata (cf. core.ListFloors), not a
		// charged access.
		if st.MinScore < 0 {
			return nil, fmt.Errorf("dist: TPUT requires non-negative scores, list %d has minimum %v", i, st.MinScore)
		}
	}

	// Originator bookkeeping: the row-major score table and the known
	// count per item.
	cells := make([]float64, n*m)
	for c := range cells {
		cells[c] = unknownScore
	}
	knownCnt := make([]int32, n)
	add := func(i int, e list.Entry) error {
		if e.Item < 0 || int(e.Item) >= n {
			return fmt.Errorf("dist: owner %d returned item %d outside [0,%d)", i, e.Item, n)
		}
		if err := checkScore(i, e.Item, e.Score); err != nil {
			return err
		}
		c := &cells[int(e.Item)*m+i]
		if *c != unknownScore {
			return nil
		}
		*c = e.Score
		knownCnt[e.Item]++
		return nil
	}
	// bound combines an item's known scores with fill[i] substituted for
	// the unknown ones — fill 0 gives the partial-sum lower bound, the
	// phase-2 threshold of list i its phase-two upper bound. Combining in
	// list order keeps the float arithmetic bit-identical to the
	// centralized algorithms, so fully resolved scores match the oracle
	// exactly.
	locals := make([]float64, m)
	bound := func(d list.ItemID, fill []float64) float64 {
		for i, v := range cells[int(d)*m : int(d)*m+m] {
			if v == unknownScore {
				v = fill[i]
			}
			locals[i] = v
		}
		return r.f.Combine(locals)
	}
	zeros := make([]float64, m)
	// kth returns the k-th highest partial sum. Phase 1 guarantees at
	// least k distinct items (each owner contributes k).
	kth := func() float64 {
		set := rank.NewSet(k)
		for d := range list.ItemID(n) {
			if knownCnt[d] > 0 {
				set.Add(d, bound(d, zeros))
			}
		}
		t, _ := set.Threshold()
		return t
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
		for _, e := range tr.Entries {
			if err := add(i, e); err != nil {
				return nil, err
			}
		}
		boundary[i] = tr.Entries[k-1].Score
	}
	tau1 := kth()
	T := rule(tau1, boundary)

	// Phase 2: threshold scan, one threshold per list.
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
		for _, e := range ar.Entries {
			if err := add(i, e); err != nil {
				return nil, err
			}
		}
	}
	tau2 := kth()

	// Phase 3: resolve the candidates exactly. An unknown score in list i
	// is < T[i] after phase 2, so sum + per-list thresholds bounds an
	// item from above.
	r.nw.net.Rounds++
	missing := make([][]list.ItemID, m)
	for d := range list.ItemID(n) {
		if knownCnt[d] == 0 || int(knownCnt[d]) == m || bound(d, T) < tau2 {
			continue
		}
		for i, v := range cells[int(d)*m : int(d)*m+m] {
			if v == unknownScore {
				missing[i] = append(missing[i], d)
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
			cells[int(d)*m+i] = fr.Scores[j]
			knownCnt[d]++
		}
	}

	// Every true top-k item is fully resolved: the unresolved ones are
	// bounded strictly below τ2 while k resolved items reach it.
	for d := range list.ItemID(n) {
		if int(knownCnt[d]) == m {
			r.y.Add(d, bound(d, zeros))
		}
	}
	res := &Result{Threshold: tau2}
	sts, err = r.stats()
	if err != nil {
		return nil, err
	}
	for _, st := range sts {
		if st.Depth > res.StopPosition {
			res.StopPosition = st.Depth
		}
	}
	return r.finish(res)
}

// unknownScore marks a cell of TPUT's score table no owner has reported:
// checkScore admits only non-negative scores, so no real score equals it.
const unknownScore = -1.0

// checkScore rejects a score owner i reported for item d that TPUT's
// non-negative-score precondition rules out.
func checkScore(i int, d list.ItemID, s float64) error {
	if !(s >= 0) || math.IsInf(s, 1) {
		return fmt.Errorf("dist: owner %d returned score %v for item %d, want a finite non-negative score", i, s, d)
	}
	return nil
}
