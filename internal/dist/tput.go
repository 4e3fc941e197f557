package dist

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
// The originator's state is linear in what the owners send, not in n·m:
//
//   - m "known" bit planes of ⌈n/64⌉ words, bit d of plane i set once
//     owner i has reported item d (a repeated report is ignored);
//   - acc, the sum of each item's known scores in list order;
//   - per-list score rows, each set in one slab, for the at most m·k
//     items phase 1 reported and, after phase 2, for the items near the
//     threshold.
//
// The sums must equal Sum.Combine over the list-ordered locals bit for
// bit (the centralized oracle's arithmetic), and Combine starts at +0
// where a skipped unknown adds +0, so:
//
//   - phase-2 entries are folded into acc as they arrive — responses are
//     handled in list order, so an item first reported in phase 2 is
//     summed in list order with no further work;
//   - the phase-1 items, whose sums would otherwise start with a later
//     list's phase-1 score, keep a row that phase 2 fills too and are
//     re-summed from it after phase 2, and the phase-3 fetched items
//     after phase 3.
//
// τ1 ranks the phase-1 items only and τ2 is one pass over acc, seen
// meaning any plane bit set. One sweep of the planes in item order then
// splits the seen items: a fully known one is ranked by acc; a partly
// known one whose acc plus its unknown lists' thresholds falls below τ2
// by more than the rounding margin (see nearSlack) is dropped; the rest
// are "near". One pass over the retained phase-2 responses gathers the
// near items' rows, and each near item's exact list-order bound — the
// same arithmetic a full n·m table would do — decides the phase-3
// candidates, so what phase 3 asks for is what the table would ask for.
// Owner data is checked before it is used: every phase-1/2 entry needs
// an item in [0,n), and every reported score must be finite and
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
	words := (n + 63) / 64

	// Originator bookkeeping: plane i of known is
	// known[i*words:(i+1)*words]; acc is the known-score sum per item.
	known := make([]uint64, m*words)
	acc := make([]float64, n)

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
	phase1 := make([]list.ItemID, 0, m*k)
	for i, resp := range topkResps {
		tr, err := as[transport.TopKResp](resp)
		if err != nil {
			return nil, err
		}
		if len(tr.Entries) != k {
			return nil, fmt.Errorf("dist: owner %d returned %d phase-1 entries, want %d", i, len(tr.Entries), k)
		}
		for _, e := range tr.Entries {
			if err := checkEntry(i, n, e); err != nil {
				return nil, err
			}
			phase1 = append(phase1, e.Item)
		}
		boundary[i] = tr.Entries[k-1].Score
	}
	slices.Sort(phase1)
	p1 := newRowSet(slices.Compact(phase1), n, m)
	for i, resp := range topkResps {
		plane := known[i*words : (i+1)*words]
		for _, e := range resp.(transport.TopKResp).Entries {
			if row := p1.row(e.Item); row[i] == unknownScore {
				row[i] = e.Score
				plane[e.Item>>6] |= 1 << (e.Item & 63)
			}
		}
	}
	p1.resum(acc, p1.items)
	tau1 := newKth(k)
	for _, d := range p1.items {
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
		plane := known[i*words : (i+1)*words]
		for _, e := range ar.Entries {
			if !validEntry(n, e) {
				return nil, checkEntry(i, n, e)
			}
			w, b := e.Item>>6, uint64(1)<<(e.Item&63)
			if plane[w]&b != 0 {
				continue
			}
			plane[w] |= b
			acc[e.Item] += e.Score
			if p1.has[w]&b != 0 {
				p1.row(e.Item)[i] = e.Score
			}
		}
	}
	p1.resum(acc, p1.items)
	kth := newKth(k)
	for w := range words {
		var seen uint64
		for i := w; i < len(known); i += words {
			seen |= known[i]
		}
		for ; seen != 0; seen &= seen - 1 {
			if v := acc[w<<6+bits.TrailingZeros64(seen)]; kth.admits(v) {
				kth.push(v)
			}
		}
	}
	tau2 := kth.value()

	// Phase 3: resolve the candidates exactly. An unknown score in list i
	// is < T[i] after phase 2, so sum + per-list thresholds bounds an
	// item from above. One sweep in item order ranks the items already
	// resolved and keeps the near ones; their exact bounds then list the
	// candidates in ascending item order. Every true top-k item is
	// resolved here or in the fetch: the unresolved ones are bounded
	// strictly below τ2 while at least k resolved items reach it, so no
	// item below τ2 can enter the answer.
	r.nw.net.Rounds++
	cut, slack := tau2, nearSlack(m)
	if math.IsInf(tau2, 1) {
		cut = math.Inf(-1) // an overflowed bound may still reach +Inf: keep every item
	}
	// fill[i] is {T[i], 0}, indexed by whether list i knows the item:
	// adding the 0 of a known list leaves the bound as it is, and the
	// sweep does not branch on every plane bit.
	fill := make([][2]float64, m)
	for i := range fill {
		fill[i][0] = T[i]
	}
	var wordBuf [8]uint64
	planeW := append(wordBuf[:0], make([]uint64, m)...) // word w of every plane
	var near []list.ItemID
	for w := range words {
		seen, all := uint64(0), ^uint64(0)
		for i := range planeW {
			planeW[i] = known[i*words+w]
			seen |= planeW[i]
			all &= planeW[i]
		}
		for ; seen != 0; seen &= seen - 1 {
			j := bits.TrailingZeros64(seen)
			d := list.ItemID(w<<6 + j)
			if all>>j&1 != 0 {
				if acc[d] >= tau2 {
					r.y.Add(d, acc[d])
				}
				continue
			}
			ub := acc[d]
			for i, p := range planeW {
				ub += fill[i][p>>j&1]
			}
			if !(ub*slack < cut) {
				near = append(near, d)
			}
		}
	}
	// Gather the near items' rows: a phase-1 item's from its phase-1
	// row, which already holds every score it has, any other's from the
	// phase-2 responses — the first report per list, as the scatter took.
	cand := newRowSet(near, n, m)
	for j, d := range near {
		if p1.has[d>>6]&(1<<(d&63)) != 0 {
			copy(cand.slab[j*m:(j+1)*m], p1.row(d))
		}
	}
	for i, resp := range aboveResps {
		if len(near) == 0 {
			break
		}
		for _, e := range resp.(transport.AboveResp).Entries {
			if cand.has[e.Item>>6]&(1<<(e.Item&63)) != 0 {
				if row := cand.row(e.Item); row[i] == unknownScore {
					row[i] = e.Score
				}
			}
		}
	}
	missing := make([][]list.ItemID, m)
	var fetched []list.ItemID
	for j, d := range near {
		row := cand.slab[j*m : (j+1)*m]
		if rowSum(row, T) >= tau2 {
			fetched = append(fetched, d)
			for i, v := range row {
				if v == unknownScore {
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
			cand.row(d)[i] = fr.Scores[j]
		}
	}
	cand.resum(acc, fetched)
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

// nearSlack is the factor by which the sweep's reordered bound ubA (acc,
// then the unknown lists' thresholds) must fall below τ2 before an item
// is dropped without its exact list-order bound ub. Both are recursive
// float64 sums of the same m non-negative terms, whose exact sum is s.
// Recursive summation of m terms errs by at most γ(m−1)·Σ|x| =
// γ(m−1)·s, with γ(j) = j·u/(1−j·u) and u = 2⁻⁵³ (Higham, Accuracy and
// Stability of Numerical Algorithms, §4.2), so with γ = γ(m−1)
//
//	ub ≤ s·(1+γ) and ubA ≥ s·(1−γ), hence ub ≤ ubA·(1+γ)/(1−γ).
//
// The product ubA·slack rounds to no less than ubA·slack·(1−u), so
// fl(ubA·slack) < τ2 proves ub < τ2 whenever slack·(1−u) ≥ (1+γ)/(1−γ)
// = 1 + 2γ/(1−γ) ≈ 1 + 2(m−1)u. slack = 1 + 4m·u gives
// slack·(1−u) ≥ 1 + (4m−1.5)u, which clears it for any m below 2⁴⁰;
// m·2⁻⁵¹ is a multiple of 2⁻⁵² there, so slack itself is exact. Sums
// too small to be normal are exact, so the bound holds there too.
func nearSlack(m int) float64 { return 1 + float64(m)/(1<<51) }

// rowSet holds the per-list scores of a few tracked items in one slab:
// row j, slab[j*m:(j+1)*m], is items[j]'s scores in list order, with
// unknownScore where no owner has reported one.
type rowSet struct {
	m     int
	items []list.ItemID // ascending and distinct
	has   []uint64      // bit d set iff d is in items
	slab  []float64
}

// newRowSet tracks items, which must be ascending and distinct, out of
// [0,n), with every score unknown.
func newRowSet(items []list.ItemID, n, m int) *rowSet {
	s := &rowSet{m: m, items: items, has: make([]uint64, (n+63)/64), slab: make([]float64, len(items)*m)}
	for _, d := range items {
		s.has[d>>6] |= 1 << (d & 63)
	}
	for c := range s.slab {
		s.slab[c] = unknownScore
	}
	return s
}

// row returns tracked item d's scores.
func (s *rowSet) row(d list.ItemID) []float64 {
	j, _ := slices.BinarySearch(s.items, d)
	return s.slab[j*s.m : (j+1)*s.m]
}

// resum sets acc[d] to the list-order sum of each tracked item d's known
// scores.
func (s *rowSet) resum(acc []float64, items []list.ItemID) {
	for _, d := range items {
		acc[d] = rowSum(s.row(d), nil)
	}
}

// rowSum combines a row's scores in list order with fill[i] substituted
// for an unknown one — the phase-2 thresholds give the phase-3 upper
// bound. With fill nil it skips the unknown ones, the partial-sum lower
// bound: the sum starts at +0, so skipping adds what Sum.Combine's +0
// would.
func rowSum(row, fill []float64) (t float64) {
	for i, v := range row {
		if v == unknownScore {
			if fill == nil {
				continue
			}
			v = fill[i]
		}
		t += v
	}
	return t
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

// unknownScore marks a row cell no owner has reported: checkScore admits
// only non-negative scores, so no real score equals it.
const unknownScore = -1.0

// checkEntry rejects a phase-1/2 entry owner i reported whose item lies
// outside [0,n) or whose score checkScore rejects. A repeated report of
// a known cell passes and is ignored by the caller.
func checkEntry(i, n int, e list.Entry) error {
	if validEntry(n, e) {
		return nil
	}
	if e.Item < 0 || int(e.Item) >= n {
		return fmt.Errorf("dist: owner %d returned item %d outside [0,%d)", i, e.Item, n)
	}
	return checkScore(i, e.Item, e.Score)
}

// validEntry is checkEntry's test, small enough to inline into the
// phase-2 loop, which calls checkEntry only for the error of an entry
// that fails it.
func validEntry(n int, e list.Entry) bool {
	return uint(e.Item) < uint(n) && validScore(e.Score)
}

// checkScore rejects a score owner i reported for item d that TPUT's
// non-negative-score precondition rules out.
func checkScore(i int, d list.ItemID, s float64) error {
	if !validScore(s) {
		return fmt.Errorf("dist: owner %d returned score %v for item %d, want a finite non-negative score", i, s, d)
	}
	return nil
}

// validScore is TPUT's precondition on a reported score: NaN, negative
// scores and +Inf fail it.
func validScore(s float64) bool { return s >= 0 && s <= math.MaxFloat64 }
