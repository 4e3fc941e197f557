package topk

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"topk/internal/access"
	"topk/internal/bestpos"
	"topk/internal/core"
	"topk/internal/list"
	"topk/internal/parallel"
	"topk/internal/score"
)

// Algorithm selects a top-k algorithm.
type Algorithm uint8

const (
	// BPA2 is the paper's optimized Best Position Algorithm and the
	// default: it never accesses a list position twice.
	BPA2 Algorithm = iota
	// BPA is the Best Position Algorithm (Section 4).
	BPA
	// TA is the Threshold Algorithm.
	TA
	// FA is Fagin's Algorithm.
	FA
	// Naive scans all lists completely.
	Naive
	// NRA is the No-Random-Access algorithm of Fagin et al. — a
	// sorted-access-only baseline. It guarantees the top-k item set but
	// reports worst-case score bounds, not exact scores (Result.Inexact).
	NRA
	// CA is the Combined Algorithm of Fagin et al.: NRA plus a periodic
	// random-access resolution of the most promising candidate. Like NRA
	// it may report inexact scores.
	CA
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case BPA2:
		return "BPA2"
	case BPA:
		return "BPA"
	case TA:
		return "TA"
	case FA:
		return "FA"
	case Naive:
		return "Naive"
	case NRA:
		return "NRA"
	case CA:
		return "CA"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// Algorithms lists every exact-score algorithm, fastest first.
func Algorithms() []Algorithm { return []Algorithm{BPA2, BPA, TA, FA, Naive} }

// ExtendedAlgorithms appends the set-only baselines NRA and CA, which
// guarantee the top-k items but may report score bounds instead of exact
// scores.
func ExtendedAlgorithms() []Algorithm { return append(Algorithms(), NRA, CA) }

func (a Algorithm) internal() (core.Algorithm, error) {
	switch a {
	case BPA2:
		return core.AlgBPA2, nil
	case BPA:
		return core.AlgBPA, nil
	case TA:
		return core.AlgTA, nil
	case FA:
		return core.AlgFA, nil
	case Naive:
		return core.AlgNaive, nil
	case NRA:
		return core.AlgNRA, nil
	case CA:
		return core.AlgCA, nil
	default:
		return 0, fmt.Errorf("topk: unknown algorithm %d", uint8(a))
	}
}

// Tracker selects the best-position bookkeeping structure used by BPA and
// BPA2 (paper Section 5.2).
type Tracker uint8

const (
	// BitArrayTracker is the Section 5.2.1 bit array (the paper's
	// evaluation default).
	BitArrayTracker Tracker = Tracker(bestpos.BitArrayKind)
	// BPlusTreeTracker is the Section 5.2.2 B+tree; preferable when the
	// lists are much longer than the number of accesses.
	BPlusTreeTracker Tracker = Tracker(bestpos.BPlusTreeKind)
	// IntervalTracker stores the seen positions as maximal runs in
	// endpoint hash maps: O(1) amortized per access, O(u) space. Not in
	// the paper; see DESIGN.md's tracker ablation.
	IntervalTracker Tracker = Tracker(bestpos.IntervalKind)
)

// Query configures a top-k execution.
type Query struct {
	// K is the number of answers to return; 1 <= K <= N.
	K int
	// Algorithm defaults to BPA2.
	Algorithm Algorithm
	// Scoring is the monotone overall-score function; defaults to Sum.
	Scoring Scoring
	// Tracker defaults to the bit array.
	Tracker Tracker
	// CheckMonotone samples the scoring function before running and
	// rejects detectable monotonicity violations; the algorithms are
	// only correct for monotone functions.
	CheckMonotone bool
	// Approximation, when >= 1, runs the θ-approximate variant of the
	// threshold algorithms: execution may stop once the answer set
	// reaches threshold/θ, and θ times every returned score is
	// guaranteed to be at least every skipped score (for non-negative
	// scores). Zero means exact.
	Approximation float64
	// Parallel executes the query with one goroutine per list owner
	// (the paper's "sorted access in parallel" taken literally).
	// Supported for TA, BPA and BPA2; answers and access counts are
	// identical to the sequential run, only wall-clock time changes.
	Parallel bool
	// Floors gives NRA and CA each list's minimum possible local score
	// for their worst-case bounds. Nil reads the list tails (list-owner
	// metadata). Ignored by the other algorithms.
	Floors []float64
	// CAPeriod is CA's random-access period h; zero means the balanced
	// default ⌊log2 n⌋. Ignored by the other algorithms.
	CAPeriod int
	// Sortable, when non-nil, marks which lists support sorted access —
	// the web-source setting where some lists answer lookups but cannot
	// be scanned. TA then runs as TAz and BPA as BPAz (random accesses
	// still advance a random-only list's best position); other
	// algorithms need sorted or positional access everywhere and are
	// refused. At least one list must be sortable.
	Sortable []bool
	// Ceilings gives each list's maximum possible local score for the
	// restricted-access thresholds. Nil reads the list heads (list-owner
	// metadata). Ignored unless Sortable is set.
	Ceilings []float64

	// onRoundObserver is set by WithOnRound and Database.Explain.
	onRoundObserver core.Observer
}

// ScoredItem is one answer.
type ScoredItem struct {
	// Item is the dense item ID.
	Item Item
	// Name is the dictionary name when the database has one.
	Name string
	// Score is the overall score.
	Score float64
}

// Stats reports the execution profile of a query in the paper's cost
// model.
type Stats struct {
	// SortedAccesses, RandomAccesses and DirectAccesses count the list
	// probes by mode.
	SortedAccesses, RandomAccesses, DirectAccesses int64
	// Cost is the execution cost: sorted accesses cost 1 each, random
	// and direct accesses cost log2(n) each (Section 6.1).
	Cost float64
	// StopPosition is the sorted-access depth at which the scan stopped
	// (FA/TA/BPA); 0 for BPA2, which does no sorted accesses.
	StopPosition int
	// Rounds is the number of parallel probe rounds.
	Rounds int
	// BestPositions holds the final best position per list (BPA/BPA2).
	BestPositions []int
	// Duration is the wall-clock execution time.
	Duration time.Duration
}

// TotalAccesses returns the number of accesses of any mode — the paper's
// distributed-cost metric.
func (s Stats) TotalAccesses() int64 {
	return s.SortedAccesses + s.RandomAccesses + s.DirectAccesses
}

// Result is a completed query.
type Result struct {
	// Algorithm that produced the result.
	Algorithm Algorithm
	// Items are the top-k answers, best first (score descending, ties by
	// ascending item ID).
	Items []ScoredItem
	// Stats is the execution profile.
	Stats Stats
	// Inexact reports that the item scores are lower bounds rather than
	// exact overall scores. Only NRA and CA can set it; the returned
	// item set is still a correct top-k set.
	Inexact bool
}

// Exec runs the query against the database and returns the top-k
// answers with the execution profile — the context-aware front door of
// the centralized algorithms. Cancellation and deadlines are honored at
// access granularity: the algorithms check ctx every sorted/probe round
// and return ctx.Err() as soon as it fires, whether the query runs
// sequentially, in parallel, or in a restricted-access variant.
func (db *Database) Exec(ctx context.Context, q Query) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if q.K < 1 || q.K > db.N() {
		return nil, fmt.Errorf("topk: k=%d out of range [1,%d]", q.K, db.N())
	}
	scoring := q.Scoring
	if scoring == nil {
		scoring = Sum()
	}
	f := adaptScoring(scoring)
	if q.CheckMonotone {
		rng := rand.New(rand.NewSource(1))
		if !score.CheckMonotone(f, db.M(), 512, rng) {
			return nil, fmt.Errorf("topk: scoring function %q is not monotone", scoring.Name())
		}
	}
	alg, err := q.Algorithm.internal()
	if err != nil {
		return nil, err
	}

	opts := core.Options{
		Ctx:           ctx,
		K:             q.K,
		Scoring:       f,
		Tracker:       bestpos.Kind(q.Tracker),
		Observer:      q.onRoundObserver,
		Approximation: q.Approximation,
		Floors:        q.Floors,
		CAPeriod:      q.CAPeriod,
	}
	start := time.Now()
	var res *core.Result
	switch {
	case q.Sortable != nil:
		if q.Parallel {
			return nil, fmt.Errorf("topk: restricted-access runs are sequential; drop Parallel")
		}
		restr := core.Restricted{Sortable: q.Sortable, Ceilings: q.Ceilings}
		switch alg {
		case core.AlgTA:
			res, err = core.TAz(access.NewProbe(db.db), opts, restr)
		case core.AlgBPA:
			res, err = core.BPAz(access.NewProbe(db.db), opts, restr)
		default:
			return nil, fmt.Errorf("topk: %v needs sorted or positional access to every list; use TA or BPA with Sortable", q.Algorithm)
		}
	case q.Parallel:
		res, err = parallel.Run(alg, db.db, opts)
	default:
		res, err = core.Run(alg, db.db, opts)
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	out := &Result{Algorithm: q.Algorithm, Inexact: res.Inexact}
	out.Items = make([]ScoredItem, len(res.Items))
	for i, it := range res.Items {
		out.Items[i] = ScoredItem{
			Item:  Item(it.Item),
			Name:  db.NameOf(Item(it.Item)),
			Score: it.Score,
		}
	}
	out.Stats = Stats{
		SortedAccesses: res.Counts.Sorted,
		RandomAccesses: res.Counts.Random,
		DirectAccesses: res.Counts.Direct,
		Cost:           res.Cost(access.DefaultCostModel(db.N())),
		StopPosition:   res.StopPosition,
		Rounds:         res.Rounds,
		BestPositions:  res.BestPositions,
		Duration:       elapsed,
	}
	return out, nil
}

// Oracle returns the exact top-k by brute force, bypassing the access
// model; useful for validating custom scoring functions.
func (db *Database) Oracle(k int, scoring Scoring) ([]ScoredItem, error) {
	if scoring == nil {
		scoring = Sum()
	}
	items, err := core.Oracle(db.db, k, adaptScoring(scoring))
	if err != nil {
		return nil, err
	}
	out := make([]ScoredItem, len(items))
	for i, it := range items {
		out[i] = ScoredItem{Item: Item(it.Item), Name: db.NameOf(Item(it.Item)), Score: it.Score}
	}
	return out, nil
}

// ensure ItemID conversions stay in range (compile-time documentation).
var _ = list.ItemID(0)
